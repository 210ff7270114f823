(** Quadratic reference for the symbolic no-steal scan — test oracle only.

    Visits every serially ordered access pair of each location and decides
    parallelism by walking the parse tree to the pair's least common
    ancestor ({!Rader_dag.Sp_tree.lca_kind}), independently of the order
    labels the production scan ({!Rader_core.Coverage.scan_trace}) sweeps
    over. No budget: cost is quadratic in a location's accesses, so keep
    inputs small. *)

(** [scan ix trace] is the {!Rader_core.Coverage.scan} record the exact
    scan must produce for [trace], whose parse-tree index is [ix]. *)
val scan : Rader_dag.Sp_tree.indexed -> Rader_core.Trace.t -> Rader_core.Coverage.scan

(** [lint_pairs ix trace] is, per location, lint's location-pair findings
    as [(rule, loc, strands)], sorted: ["R002"] for the first parallel pair
    with both endpoints view-oblivious and one a write, ["R005"] for the
    first parallel pair, one a write, whose endpoints differ in
    view-awareness (strands listed view-aware first). *)
val lint_pairs :
  Rader_dag.Sp_tree.indexed -> Rader_core.Trace.t -> (string * int * int list) list
