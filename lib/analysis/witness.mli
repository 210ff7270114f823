(** Replayable witness certificates — the [rader verify] driver.

    Joins the {!Symbolic} whole-family verdict with the sweep that
    replays exactly {!Symbolic.replay_specs}
    ([Coverage.exhaustive_check ~scan]): every reported race is
    backed by a replay-confirmed witness steal specification (the first
    spec, in canonical family order, whose replay elicited it — the
    lexicographic minimum of the family under that order), every clean
    location by a steal-independent certificate plus, where the residual
    set is non-empty, the residual replays that also came back clean.
    [racy_locs] is byte-identical to the enumerated §7 sweep by
    construction.

    The symbolic layer explains and accelerates; it never decides: a
    scan claim no replay confirms is surfaced in [unconfirmed] and the
    replayed verdict stands. *)

type verdict =
  | Racy of {
      witness : string;  (** replay-confirmed witness spec name *)
      first_strand : int;  (** -1 when only steal-elicited (not in the IR) *)
      second_strand : int;
      pair : string;  (** access kinds, e.g. ["write/write"] *)
      always : bool;  (** racy on every spec of the family (R006) *)
    }
  | Clean of {
      cert : Rader_core.Coverage.certificate option;
      cleared_by : int;  (** residual replays that also had to come back clean *)
    }

type row = { r_loc : int; r_label : string; r_verdict : verdict }

type t = {
  program : string;
  prof : Rader_core.Coverage.profile;
  n_specs : int;
  n_replays : int;
  n_skipped : int;
  n_residual : int;
  racy_locs : int list;
  reports : Rader_core.Report.t list;
  rows : row list;
  spec_independent : int list;
  unconfirmed : int list;
  incomplete : (string * Rader_core.Diag.failure) list;
  complete : bool;
  res : Rader_core.Coverage.result;
}

(** [verify ~name program] runs the symbolic verification pipeline: one
    profiling run, one recorded IR run (skipped when [ir], the
    {!Ir.of_program} of this same program, is given), the exact scan of
    that run, and replays of exactly the witness specs. [Error] if the IR
    run crashes (contained) — use the enumerated sweep for crashing
    programs. Other parameters as in [Coverage.exhaustive_check]. *)
val verify :
  ?reach:Rader_reach.Reach.backend ->
  ?ir:Ir.t ->
  ?jobs:int ->
  ?max_events:int ->
  ?deadline:float ->
  ?with_obs:bool ->
  name:string ->
  (Rader_runtime.Engine.ctx -> int) ->
  (t, Rader_core.Diag.failure) result

(** Render the per-location witness table (or the race-free one-liner). *)
val to_table : t -> string

(** Render the result as one JSON object. *)
val to_json : t -> string
