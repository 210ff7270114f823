(** Canonical SP parse trees (paper §4, Fig. 4; after Feng & Leiserson).

    The dag of a Cilk computation without reducers is series-parallel and is
    represented by a binary parse tree whose leaves are strands and whose
    internal nodes are S (series) or P (parallel) compositions. In the
    {e canonical} tree of a function, the sync strands partition the
    function's strands into sync blocks; each sync block is a right-leaning
    chain in which a node is a P node exactly when its left child is the
    subtree of a {e spawned} child, and the sync blocks are linked by a
    spine of S nodes.

    Lemma 2: [peers(u) = peers(v)] iff the tree path from [u] to [v]
    consists entirely of S nodes. Lemma 4 of Feng & Leiserson: [u ‖ v] iff
    their least common ancestor is a P node — equivalently, iff the
    {e English} order (left-to-right leaves) and the {e Hebrew} order
    (leaves with every P node's children swapped) disagree on [u] and [v].
    This module provides both queries; the Peer-Set tests use them as an
    independent oracle. *)

type t =
  | Leaf of int  (** strand id *)
  | S of t * t
  | P of t * t

(** Items of one sync block, in serial order. *)
type item =
  | Strand of int  (** a strand executed directly by the function *)
  | Spawned of t  (** the parse tree of a spawned child *)
  | Called of t  (** the parse tree of a called child *)

(** [block_tree items] is the canonical right-leaning chain of one sync
    block. @raise Invalid_argument on an empty block. *)
val block_tree : item list -> t

(** [function_tree blocks] chains the given sync-block trees with the S
    spine. @raise Invalid_argument on an empty list. *)
val function_tree : t list -> t

(** [leaves t] is the leaf strand ids in left-to-right (= serial) order. *)
val leaves : t -> int list

(** Preprocessed form: O(depth) path queries, O(1) order labels. *)
type indexed

(** [index t] preprocesses the tree in O(nodes), including every leaf's
    rank in both orders. Label arrays are indexed by strand id, so
    ids should be dense. @raise Invalid_argument if a strand id is
    negative or appears in two leaves. *)
val index : t -> indexed

(** [lca_kind ix u v] is [`S] or [`P]: the kind of the least common ancestor
    of leaves [u] and [v], found by walking the tree (O(depth)).
    @raise Invalid_argument for unknown leaves or [u = v]. *)
val lca_kind : indexed -> int -> int -> [ `S | `P ]

(** [all_s_path ix u v] is true iff every internal node on the tree path
    from leaf [u] to leaf [v] (LCA included) is an S node — by Lemma 2,
    exactly when [peers(u) = peers(v)]. [all_s_path ix u u = true]. *)
val all_s_path : indexed -> int -> int -> bool

(** [hebrew ix u] is leaf [u]'s rank in the order that visits every P
    node's right child before its left. For [u] left of [v] in {!leaves}
    (serially earlier), [u ‖ v] iff [hebrew ix v < hebrew ix u].
    @raise Invalid_argument for an unknown leaf. *)
val hebrew : indexed -> int -> int

(** [parallel ix u v] is true iff the LCA of [u] and [v] is a P node — by
    Feng & Leiserson's Lemma 4, exactly when [u ‖ v]. O(1): compares the
    two leaves' English and Hebrew ranks. @raise Invalid_argument for
    unknown leaves ([parallel ix u u = false]). *)
val parallel : indexed -> int -> int -> bool

(** [to_dot t] renders the parse tree in Graphviz format (S nodes as
    circles, P nodes as doublecircles, strand leaves as boxes) — the
    Fig.-4 view of a computation. [leaf_attrs strand] contributes extra
    dot attributes to that strand's leaf (values must already be
    dot-quoted if needed) — the hook the lint pass uses to color
    finding-bearing strands. *)
val to_dot : ?leaf_attrs:(int -> (string * string) list) -> t -> string

(** [to_dag t] converts the parse tree back to the series-parallel dag it
    represents. Strand ids become dag strand ids 0..n-1 renumbered in serial
    order; the result also maps original leaf ids to dag ids. Useful for
    cross-checking tree-based and dag-based oracles. *)
val to_dag : t -> Dag.t * (int -> int)
