type t = Leaf of int | S of t * t | P of t * t

type item = Strand of int | Spawned of t | Called of t

let tree_of_item = function
  | Strand id -> Leaf id
  | Spawned t -> t
  | Called t -> t

let rec block_tree = function
  | [] -> invalid_arg "Sp_tree.block_tree: empty sync block"
  | [ item ] -> tree_of_item item
  | item :: rest ->
      let left = tree_of_item item in
      let right = block_tree rest in
      (* A node is a P node exactly when its left child is the parse tree of
         a spawned subcomputation (canonical form, paper §4). *)
      (match item with
      | Spawned _ -> P (left, right)
      | Strand _ | Called _ -> S (left, right))

let rec function_tree = function
  | [] -> invalid_arg "Sp_tree.function_tree: no sync blocks"
  | [ b ] -> b
  | b :: rest -> S (b, function_tree rest)

let leaves t =
  let rec go t acc =
    match t with
    | Leaf id -> id :: acc
    | S (a, b) | P (a, b) -> go a (go b acc)
  in
  go t []

type indexed = {
  parent : int array; (* node id -> parent node id, -1 at root *)
  is_p : bool array;
  depth : int array;
  leaf_node : int array; (* strand id -> preorder node id, -1 if not a leaf *)
  heb : int array; (* strand id -> Hebrew (P children swapped) leaf rank *)
}

let index t =
  let count = ref 0 in
  let max_leaf = ref (-1) in
  let rec count_nodes = function
    | Leaf s ->
        if s < 0 then invalid_arg "Sp_tree.index: negative leaf strand id";
        incr count;
        if s > !max_leaf then max_leaf := s
    | S (a, b) | P (a, b) ->
        incr count;
        count_nodes a;
        count_nodes b
  in
  count_nodes t;
  let n = !count in
  let parent = Array.make n (-1) in
  let is_p = Array.make n false in
  let depth = Array.make n 0 in
  let leaves = Array.make n 0 in
  let leaf_node = Array.make (!max_leaf + 1) (-1) in
  let heb = Array.make (!max_leaf + 1) (-1) in
  let next = ref 0 in
  (* Preorder ids: a node's left child is [id + 1] and every child id
     exceeds its parent's. Returns the subtree's leaf count. *)
  let rec go t p d =
    let id = !next in
    incr next;
    parent.(id) <- p;
    depth.(id) <- d;
    let l =
      match t with
      | Leaf s ->
          if leaf_node.(s) >= 0 then
            invalid_arg "Sp_tree.index: duplicate leaf strand id";
          leaf_node.(s) <- id;
          1
      | S (a, b) -> children id d a b
      | P (a, b) ->
          is_p.(id) <- true;
          children id d a b
    in
    leaves.(id) <- l;
    l
  and children id d a b =
    let la = go a id (d + 1) in
    la + go b id (d + 1)
  in
  ignore (go t (-1) 0);
  (* Hebrew order visits a P node's right child first. [hoff.(id)] is the
     Hebrew rank of the subtree's first leaf: a child skips its sibling's
     leaves when it is a P node's left child or an S node's right child.
     Parents precede children in preorder, so one forward pass fills it. *)
  let hoff = Array.make n 0 in
  for id = 1 to n - 1 do
    let p = parent.(id) in
    let left = id = p + 1 in
    let skip = leaves.(p) - leaves.(id) in
    hoff.(id) <- (hoff.(p) + if left = is_p.(p) then skip else 0)
  done;
  Array.iteri (fun s node -> if node >= 0 then heb.(s) <- hoff.(node)) leaf_node;
  { parent; is_p; depth; leaf_node; heb }

let node_of ix u =
  if u >= 0 && u < Array.length ix.leaf_node && ix.leaf_node.(u) >= 0 then
    ix.leaf_node.(u)
  else invalid_arg "Sp_tree: unknown leaf strand"

(* Walk both nodes up to their LCA, applying [visit] to every internal node
   stepped onto (i.e., every proper ancestor of a start node up to and
   including the LCA). *)
let walk_to_lca ix a b visit =
  let a = ref a and b = ref b in
  while ix.depth.(!a) > ix.depth.(!b) do
    a := ix.parent.(!a);
    visit !a
  done;
  while ix.depth.(!b) > ix.depth.(!a) do
    b := ix.parent.(!b);
    visit !b
  done;
  while !a <> !b do
    a := ix.parent.(!a);
    visit !a;
    b := ix.parent.(!b);
    visit !b
  done;
  !a

let lca_kind ix u v =
  if u = v then invalid_arg "Sp_tree.lca_kind: identical leaves";
  let lca = walk_to_lca ix (node_of ix u) (node_of ix v) (fun _ -> ()) in
  if ix.is_p.(lca) then `P else `S

let all_s_path ix u v =
  if u = v then true
  else begin
    let ok = ref true in
    let _lca =
      walk_to_lca ix (node_of ix u) (node_of ix v) (fun n ->
          if ix.is_p.(n) then ok := false)
    in
    !ok
  end

let hebrew ix u =
  ignore (node_of ix u);
  ix.heb.(u)

(* Preorder leaf ids follow English (left-to-right) order. The LCA of two
   leaves is a P node exactly when it is the one node whose children the
   English and Hebrew orders visit in opposite sequence (Lemma 4). *)
let parallel ix u v =
  u <> v && (node_of ix u < node_of ix v) <> (ix.heb.(u) < ix.heb.(v))

let to_dot ?(leaf_attrs = fun _ -> []) t =
  let g = Rader_support.Dot.create "sp_parse_tree" in
  let next = ref 0 in
  let rec go t =
    let id = Printf.sprintf "n%d" !next in
    incr next;
    (match t with
    | Leaf s ->
        Rader_support.Dot.node g id ~label:(string_of_int s)
          ~attrs:(("shape", "box") :: leaf_attrs s)
    | S (a, b) ->
        Rader_support.Dot.node g id ~label:"S" ~attrs:[ ("shape", "circle") ];
        Rader_support.Dot.edge g id (go a) ~attrs:[];
        Rader_support.Dot.edge g id (go b) ~attrs:[]
    | P (a, b) ->
        Rader_support.Dot.node g id ~label:"P"
          ~attrs:[ ("shape", "doublecircle") ];
        Rader_support.Dot.edge g id (go a) ~attrs:[];
        Rader_support.Dot.edge g id (go b) ~attrs:[]);
    id
  in
  let _root = go t in
  Rader_support.Dot.render g

let to_dag t =
  (* Number leaves in serial (left-to-right) order, then wire series
     compositions sink→source and leave parallel compositions unconnected;
     the enclosing series nodes supply the fan-out/fan-in edges. *)
  let dag = Dag.create () in
  let mapping = Hashtbl.create 64 in
  let rec alloc = function
    | Leaf s ->
        let id =
          Dag.add_strand dag ~frame:(-1) ~kind:Dag.User ~view:(-1)
            ~label:(string_of_int s)
        in
        Hashtbl.replace mapping s id
    | S (a, b) | P (a, b) ->
        alloc a;
        alloc b
  in
  alloc t;
  let rec wire = function
    | Leaf s ->
        let id = Hashtbl.find mapping s in
        ([ id ], [ id ])
    | S (a, b) ->
        let src_a, snk_a = wire a in
        let src_b, snk_b = wire b in
        List.iter (fun u -> List.iter (fun v -> Dag.add_edge dag u v) src_b) snk_a;
        (src_a, snk_b)
    | P (a, b) ->
        let src_a, snk_a = wire a in
        let src_b, snk_b = wire b in
        (src_a @ src_b, snk_a @ snk_b)
  in
  let _ = wire t in
  (dag, fun s -> Hashtbl.find mapping s)
