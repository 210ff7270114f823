module Engine = Rader_runtime.Engine
module Tool = Rader_runtime.Tool
module Steal_spec = Rader_runtime.Steal_spec
module Obs = Rader_obs.Obs

type profile = {
  k : int;
  d : int;
  n_spawns : int;
  k_rel : int;
  rel_depths : int list;
}

(* Count continuations per sync block and spawn depth with a tiny tool:
   each spawned-child return in a frame is one continuation; sync resets
   the frame's count. Contained: if the program crashes mid-profile, the
   maxima observed over the completed prefix are returned together with
   the diagnostic.

   The same pass computes the program's *relevance profile* for spec
   pruning. A steal at continuation position [i] of a sync block can only
   perturb the analysis if some instrumented event — a cell access, a
   reducer-read, or a view-aware auxiliary frame — executes in the block's
   dynamic extent at or after that position: only then can the fresh
   region acquire a view, run a reduce, shift strand numbering, or change
   any access's region. So on every such event we walk the active frame
   stack and record, per frame, the largest continuation count at which an
   event was observed in the frame's current sync block; a block whose
   count never reaches 1 cannot be perturbed by any steal. [k_rel] is the
   maximum over all blocks (0 = no steal anywhere matters) and
   [rel_depths] the sorted depths of frames owning at least one
   perturbable block — the two coordinates {!spec_relevant} checks. *)
let profile_with_failure program =
  let max_k = ref 0 in
  let max_d = ref 0 in
  let conts = Hashtbl.create 64 in (* frame -> conts in current block *)
  let depth = Hashtbl.create 64 in
  let rel = Hashtbl.create 64 in (* frame -> max marked conts, current block *)
  let stack = ref [] in (* active frames, innermost first *)
  let max_k_rel = ref 0 in
  let rel_depth_set = Hashtbl.create 8 in
  let saw_reducer = ref false in
  let mark () =
    List.iter
      (fun fid ->
        match Hashtbl.find_opt conts fid with
        | Some c when c >= 1 -> (
            match Hashtbl.find_opt rel fid with
            | Some r when r >= c -> ()
            | _ -> Hashtbl.replace rel fid c)
        | _ -> ())
      !stack
  in
  (* The frame's current sync block is over: fold its marked maximum into
     the global relevance coordinates. *)
  let fold_block fid =
    (match Hashtbl.find_opt rel fid with
    | Some r when r >= 1 ->
        if r > !max_k_rel then max_k_rel := r;
        (match Hashtbl.find_opt depth fid with
        | Some d -> Hashtbl.replace rel_depth_set d ()
        | None -> ())
    | _ -> ());
    Hashtbl.remove rel fid
  in
  let tool =
    Tool.extern
    {
      Tool.hooks_null with
      Tool.on_frame_enter =
        (fun ~frame ~parent ~spawned:_ ~kind ->
          if kind <> Tool.User_fn then begin
            saw_reducer := true;
            mark ()
          end;
          let d =
            if parent < 0 then 0
            else
              (* an unexpected parent (e.g. after a contained crash left a
                 gap in the enter/return pairing) profiles as depth 0
                 rather than raising Not_found mid-profile *)
              match Hashtbl.find_opt depth parent with
              | Some pd -> pd + 1
              | None -> 0
          in
          Hashtbl.replace depth frame d;
          if d > !max_d then max_d := d;
          Hashtbl.replace conts frame 0;
          stack := frame :: !stack);
      on_frame_return =
        (fun ~frame ~parent ~spawned ~kind:_ ->
          fold_block frame;
          (match !stack with f :: rest when f = frame -> stack := rest | _ -> ());
          Hashtbl.remove conts frame;
          Hashtbl.remove depth frame;
          if spawned && parent >= 0 then begin
            let c =
              (match Hashtbl.find_opt conts parent with Some c -> c | None -> 0)
              + 1
            in
            Hashtbl.replace conts parent c;
            if c > !max_k then max_k := c
          end);
      on_sync =
        (fun ~frame ->
          fold_block frame;
          Hashtbl.replace conts frame 0);
      on_read = (fun ~frame:_ ~loc:_ ~view_aware:_ -> mark ());
      on_write = (fun ~frame:_ ~loc:_ ~view_aware:_ -> mark ());
      on_reducer_read =
        (fun ~frame:_ ~reducer:_ ->
          saw_reducer := true;
          mark ());
    }
  in
  let eng = Engine.create ~tool () in
  let failure =
    match Engine.run_result eng program with Ok _ -> None | Error f -> Some f
  in
  let stats = Engine.stats eng in
  (* A program that performs no reducer operation at all — ostensibly
     deterministic control flow is spec-invariant, so it never will under
     any spec either — has no view-aware accesses anywhere: every steal is
     verdict-neutral regardless of plain accesses in its extent, and the
     whole family beyond [Steal_spec.none] is redundant. *)
  let k_rel, rel_depths =
    if not !saw_reducer then (0, [])
    else
      ( !max_k_rel,
        List.sort compare
          (Hashtbl.fold (fun d () acc -> d :: acc) rel_depth_set []) )
  in
  ( { k = !max_k; d = !max_d; n_spawns = stats.Engine.n_spawns; k_rel; rel_depths },
    failure )

let profile program = fst (profile_with_failure program)

(* A spec is *irrelevant* when every steal it could possibly perform lands
   strictly after the last instrumented event of its sync block: the stolen
   region then never materializes a view, every region merge is a no-op
   (no Reduce/Identity frames, no strand-numbering change), and every
   access keeps the region and SP relation it has under [Steal_spec.none]
   — so the replay's verdict is byte-identical to the no-steal replay that
   always runs first. Dropping such specs cannot change [racy_locs] or
   [reports]. Shapes that cannot be localized ([Always], [Probabilistic],
   [Spawn_indices], [Opaque]) are conservatively kept. *)
let spec_relevant prof (s : Steal_spec.t) =
  match s.Steal_spec.shape with
  | Steal_spec.Local_indices idxs -> List.exists (fun i -> i <= prof.k_rel) idxs
  | Steal_spec.At_depth dd -> List.mem dd prof.rel_depths
  | Steal_spec.Never | Steal_spec.Always | Steal_spec.Probabilistic
  | Steal_spec.Spawn_indices _ | Steal_spec.Opaque ->
      true

let prune_specs prof specs = List.filter (spec_relevant prof) specs

let specs_for_updates ~k ~d =
  let by_position =
    List.init k (fun i ->
        Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ i + 1 ])
  in
  let by_depth = List.init (d + 1) (fun dd -> Steal_spec.at_depth dd) in
  by_position @ by_depth

let specs_for_reductions ~k =
  let specs = ref [] in
  let push s = specs := s :: !specs in
  for a = 1 to k do
    (* single steal: elicits ⟨0..a⟩ ⊗ ⟨a..end⟩ *)
    push (Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_at_sync [ a ]);
    for b = a + 1 to k do
      (* right fold: elicits ⟨a..b⟩ ⊗ ⟨b..end⟩ then ⟨0..a⟩ ⊗ rest;
         left (eager) fold: elicits ⟨0..a⟩ ⊗ ⟨a..b⟩ then rest ⊗ ⟨b..end⟩ *)
      push (Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_at_sync [ a; b ]);
      push (Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ a; b ]);
      for c = b + 1 to k do
        (* middle pair first: elicits ⟨a..b⟩ ⊗ ⟨b..c⟩ (Theorem 7) *)
        push
          (Steal_spec.with_name
             (Steal_spec.at_local_indices
                ~policy:(Steal_spec.Reduce_schedule (fun ord -> if ord = 3 then 1 else 0))
                [ a; b; c ])
             (Printf.sprintf "triple(%d,%d,%d)" a b c))
      done
    done
  done;
  List.rev !specs

let all_specs ~k ~d =
  (Steal_spec.none :: specs_for_updates ~k ~d) @ specs_for_reductions ~k

(* ---------- symbolic no-steal scan ----------

   SP+ under [Steal_spec.none] degenerates to a closed form: no steal ever
   fires, so every access carries view id 0 and the detector's check
   collapses to "recorded access parallel with the current one, and the
   current one view-oblivious" (the view-aware branch compares equal view
   ids and never fires). Its shadow keeps a recorded access unless it is
   serial with the current strand, so by transitivity of SP precedence the
   retained entry is parallel to the current access whenever any dropped
   one was — per location, the single-slot shadow misses nothing. The
   no-steal verdict is therefore computable from the recorded trace alone:

     racy(none)(loc) ⟺ ∃ accesses x before y at loc, strands parallel
                        (parse-tree Lemma 4), at least one a write, and
                        y view-oblivious.

   When additionally x is view-oblivious, both endpoints are plain user
   code: they execute, at the same location, under *every* steal spec
   (steals never perturb view-oblivious strands of an ostensibly
   deterministic program), stay parallel (the SP relation of user strands
   is program-determined), and the later-endpoint-oblivious check fires
   regardless of view ids — the location races on every spec of the
   family. That is the strongest verdict the analyzer can issue (lint
   R006) and the basis for skipping the no-steal replay entirely when the
   scan proves it clean.

   The scan is exact and budget-free. Accesses are logged in serial
   (English) order, so an earlier x and a later y are parallel iff y comes
   first in Hebrew order (Lemma 4). A backward sweep keeps, per
   (view-aware, write) class, a Fenwick prefix-min tree over Hebrew rank
   of the serial indices already swept: the last x to find a partner is
   the lexicographically first pair. O(T log T); DESIGN.md §14. *)

type certificate =
  | No_parallel_pair  (** no two accesses are ever logically parallel *)
  | Parallel_reads_only  (** parallel accesses exist but none writes *)
  | Va_suppressed
      (** a parallel pair with a write exists, but every such pair's later
          endpoint is view-aware: clean without steals; only the residual
          replays can decide the stolen schedules *)

type loc_scan = {
  ls_loc : int;
  ls_first : Rader_runtime.Engine.access;  (** witness pair, serial order *)
  ls_second : Rader_runtime.Engine.access;
  ls_always : bool;
      (** both witness endpoints view-oblivious: racy under every spec *)
}

type scan = {
  scan_racy : loc_scan list;  (** ascending location *)
  scan_clean : (int * certificate) list;  (** ascending location *)
  scan_escapes :
    (int * Rader_runtime.Engine.access * Rader_runtime.Engine.access) list;
      (** ascending location: first parallel write-bearing pair whose
          endpoints differ in view-awareness (lint R005) *)
}

let scan_trace ix (trace : Trace.t) =
  let heb (a : Engine.access) = Rader_dag.Sp_tree.hebrew ix a.Engine.a_strand in
  (* per location, accesses latest first *)
  let by_loc = Hashtbl.create 64 in
  let n = ref 0 in
  List.iter
    (fun (a : Engine.access) ->
      n := max !n (heb a + 1);
      let prev = try Hashtbl.find by_loc a.Engine.a_loc with Not_found -> [] in
      Hashtbl.replace by_loc a.Engine.a_loc (a :: prev))
    trace.Trace.accesses;
  let locs =
    List.sort compare (Hashtbl.fold (fun l accs acc -> (l, accs) :: acc) by_loc [])
  in
  (* Fenwick trees over 1-based Hebrew positions, one per class
     [2 * view_aware + is_write], cleared after each location *)
  let none = max_int in
  let fen = Array.init 4 (fun _ -> Array.make (!n + 1) none) in
  let cls (a : Engine.access) =
    (if a.Engine.a_view_aware then 2 else 0) + if a.Engine.a_is_write then 1 else 0
  in
  let query c h =
    let t = fen.(c) and r = ref none and p = ref h in
    while !p > 0 do
      if t.(!p) < !r then r := t.(!p);
      p := !p - (!p land - !p)
    done;
    !r
  in
  let update c h f =
    let t = fen.(c) and p = ref (h + 1) in
    while !p <= !n do
      t.(!p) <- f t.(!p);
      p := !p + (!p land - !p)
    done
  in
  let racy = ref [] and clean = ref [] and escapes = ref [] in
  List.iter
    (fun (loc, latest_first) ->
      let accs = Array.of_list (List.rev latest_first) in
      let first_racy = ref None and first_always = ref None in
      let first_escape = ref None in
      let any_parallel = ref false and suppressed = ref false in
      for i = Array.length accs - 1 downto 0 do
        let x = accs.(i) in
        let h = heb x in
        (* [qc]: serial index of x's first parallel later access of
           class c, or [none] *)
        let q0 = query 0 h and q1 = query 1 h in
        let q2 = query 2 h and q3 = query 3 h in
        (* partners that make a write-bearing pair with x, by the later
           endpoint's view-awareness *)
        let w = x.Engine.a_is_write in
        let obl = if w then min q0 q1 else q1 in
        let va = if w then min q2 q3 else q3 in
        if obl < none then begin
          first_racy := Some (i, obl);
          if not x.Engine.a_view_aware then first_always := Some (i, obl)
        end;
        if va < none then suppressed := true;
        let esc = if x.Engine.a_view_aware then obl else va in
        if esc < none then first_escape := Some (i, esc);
        if min (min q0 q1) (min q2 q3) < none then any_parallel := true;
        update (cls x) h (fun v -> if i < v then i else v)
      done;
      Array.iter (fun a -> update (cls a) (heb a) (fun _ -> none)) accs;
      (match (!first_always, !first_racy) with
      | Some (i, j), _ | None, Some (i, j) ->
          racy :=
            {
              ls_loc = loc;
              ls_first = accs.(i);
              ls_second = accs.(j);
              ls_always = !first_always <> None;
            }
            :: !racy
      | None, None ->
          let cert =
            if !suppressed then Va_suppressed
            else if !any_parallel then Parallel_reads_only
            else No_parallel_pair
          in
          clean := (loc, cert) :: !clean);
      match !first_escape with
      | Some (i, j) -> escapes := (loc, accs.(i), accs.(j)) :: !escapes
      | None -> ())
    locs;
  {
    scan_racy = List.rev !racy;
    scan_clean = List.rev !clean;
    scan_escapes = List.rev !escapes;
  }

type span = {
  span_spec : string;
  span_worker : int;
  span_t0_us : float;
  span_t1_us : float;
}

type obs_summary = {
  obs_counters : Obs.counters;
  obs_spans : span list;
  obs_phases : (string * float) list;
}

type result = {
  prof : profile;
  n_specs : int;
  n_pruned : int;
  n_skipped : int;
  sym : scan option;
  n_run : int;
  racy_locs : int list;
  reports : Report.t list;
  per_spec : (Steal_spec.t * int list) list;
  incomplete : (string * Diag.failure) list;
  complete : bool;
  obs : obs_summary option;
}

let take n xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] xs

(* What one spec replay produced. [Not_run] = the sweep-wide deadline
   expired before the spec was dispatched. *)
type spec_outcome =
  | Ran of {
      locs : int list;
      races : Report.t list;
      failure : Diag.failure option;
      (* observability (with_obs only): this replay's deterministic
         counter delta, plus wall-clock span coordinates for the trace *)
      counters : Obs.counters option;
      worker : int;
      t0_us : float;
      t1_us : float;
    }
  | Not_run

let exhaustive_check ?max_specs ?max_events ?deadline ?(jobs = 1)
    ?(with_obs = false) ?(prune = false) ?(symbolic = false) ?scan ?reach
    program =
  let abs_deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline in
  let past_deadline () =
    match abs_deadline with
    | Some dl -> Unix.gettimeofday () > dl
    | None -> false
  in
  let obs_was = Obs.enabled () in
  if with_obs then Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled obs_was) @@ fun () ->
  let phase_profile = Obs.phase "profile" in
  let phase_replay = Obs.phase "replay" in
  let phase_merge = Obs.phase "merge" in
  let prof_snap = if with_obs then Some (Obs.snapshot ()) else None in
  let prof, prof_failure =
    Obs.timed phase_profile (fun () -> profile_with_failure program)
  in
  let prof_counters = Option.map Obs.since prof_snap in
  let specs = all_specs ~k:prof.k ~d:prof.d in
  let n_specs = List.length specs in
  (* The symbolic fast path needs a scan of a recorded no-steal run — the
     caller's, or one extra recording; like pruning it is sound only
     against a complete profile, and a crashing program voids it too (fall
     back to the enumerated sweep). *)
  let record_and_scan () =
    let eng = Engine.create ~record:true () in
    match Engine.run_result eng program with
    | Error _ -> None
    | Ok _ ->
        let trace = Trace.of_engine eng in
        Some (scan_trace (Rader_dag.Sp_tree.index (Trace.sp_tree trace)) trace)
  in
  let sym =
    if prof_failure <> None then None
    else if scan <> None then scan
    else if symbolic then Obs.timed phase_profile record_and_scan
    else None
  in
  (* Pruning is sound only against a complete relevance profile: if the
     profiling run crashed, keep the whole family. *)
  let specs, n_pruned, n_skipped =
    match sym with
    | Some s ->
        (* Symbolic selection: every spec outside the residual set is
           provably verdict-identical to [Steal_spec.none] (the relevance
           lemma), and [none] itself is needed only when the scan found a
           no-steal race. *)
        let keep (sp : Steal_spec.t) =
          match sp.Steal_spec.shape with
          | Steal_spec.Never -> s.scan_racy <> []
          | _ -> spec_relevant prof sp
        in
        let kept = List.filter keep specs in
        (kept, 0, n_specs - List.length kept)
    | None ->
        if prune && prof_failure = None then begin
          let kept = prune_specs prof specs in
          (kept, n_specs - List.length kept, 0)
        end
        else (specs, 0, 0)
  in
  let specs, dropped =
    match max_specs with
    | Some m when m < n_specs -> take m specs
    | _ -> (specs, [])
  in
  let specs = Array.of_list specs in
  (* Fan the replays out across domains. Each worker owns one engine +
     detector pair and recycles it per spec (Engine.reset / Sp_plus.reset)
     instead of reallocating; each replay's verdicts are returned as a
     self-contained outcome, so workers never share mutable state. Under
     [with_obs] each replay also carries its own counter delta — replays
     are deterministic, so the deltas (and their spec-order sum) are
     independent of which worker ran them. *)
  let outcomes, _ =
    Obs.timed phase_replay (fun () ->
        Parallel_sweep.map ~jobs ~stop:past_deadline
          ~init:(fun wid ->
            let eng = Engine.create () in
            let det = Sp_plus.attach ?reach eng in
            (wid, eng, det))
          ~task:(fun (wid, eng, det) i ->
            (* Re-check the sweep deadline at dispatch: a spec handed out
               in the window between the queue's [stop] poll and the task
               starting (jobs >= 2) is charged to the deadline exactly
               like the serial sweep charges it, instead of racing a
               doomed replay whose events would skew the obs summary. *)
            if past_deadline () then Not_run
            else begin
            Engine.reset ~spec:specs.(i) ?max_events ?deadline:abs_deadline eng;
            Sp_plus.reset det;
            let t0_us = if with_obs then Obs.now_us () else 0.0 in
            let snap = if with_obs then Some (Obs.snapshot ()) else None in
            let failure =
              match Engine.run_result eng program with
              | Ok _ -> None
              | Error f -> Some f
            in
            (* the detector's verdicts over the completed prefix still count *)
            Ran
              {
                locs = Sp_plus.racy_locs det;
                races = Sp_plus.races det;
                failure;
                counters = Option.map Obs.since snap;
                worker = wid;
                t0_us;
                t1_us = (if with_obs then Obs.now_us () else 0.0);
              }
            end)
          ~skipped:(fun _ -> Not_run)
          (Array.length specs))
  in
  (* Merge in spec order: the fold below is exactly the loop body of the
     serial sweep, so the result — report order, dedup decisions,
     [incomplete] order — is identical no matter how many domains ran. *)
  let seen = Hashtbl.create 32 in
  let reports = ref [] in
  let per_spec = ref [] in
  let incomplete =
    ref (match prof_failure with Some f -> [ ("profile", f) ] | None -> [])
  in
  let n_run = ref 0 in
  let merged = Option.map Obs.copy prof_counters in
  let spans = ref [] in
  Obs.timed phase_merge (fun () ->
      Array.iteri
        (fun i outcome ->
          let spec = specs.(i) in
          match outcome with
          | Not_run ->
              (* out of time: charge the remaining specs to the deadline without
                 running them, so the caller sees exactly what was not covered *)
              incomplete :=
                ( spec.Steal_spec.name,
                  Diag.Budget_exceeded (Diag.Deadline (Option.get abs_deadline)) )
                :: !incomplete
          | Ran { locs; races; failure; counters; worker; t0_us; t1_us } ->
              incr n_run;
              (match failure with
              | None -> ()
              | Some f -> incomplete := (spec.Steal_spec.name, f) :: !incomplete);
              (match (merged, counters) with
              | Some into, Some c ->
                  Obs.add ~into c;
                  spans :=
                    {
                      span_spec = spec.Steal_spec.name;
                      span_worker = worker;
                      span_t0_us = t0_us;
                      span_t1_us = t1_us;
                    }
                    :: !spans
              | _ -> ());
              per_spec := (spec, locs) :: !per_spec;
              List.iter
                (fun r ->
                  if not (Hashtbl.mem seen r.Report.subject) then begin
                    Hashtbl.replace seen r.Report.subject ();
                    reports := r :: !reports
                  end)
                races)
        outcomes);
  let m = Option.value max_specs ~default:0 in
  List.iter
    (fun (spec : Steal_spec.t) ->
      incomplete :=
        (spec.Steal_spec.name, Diag.Budget_exceeded (Diag.Max_specs m))
        :: !incomplete)
    dropped;
  let incomplete = List.rev !incomplete in
  let obs =
    Option.map
      (fun obs_counters ->
        {
          obs_counters;
          obs_spans = List.rev !spans;
          obs_phases =
            List.map
              (fun p -> (Obs.phase_name p, Obs.phase_seconds p))
              [ phase_profile; phase_replay; phase_merge ];
        })
      merged
  in
  {
    prof;
    n_specs;
    n_pruned;
    n_skipped;
    sym;
    n_run = !n_run;
    racy_locs = List.sort_uniq compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []);
    reports = List.rev !reports;
    per_spec = List.rev !per_spec;
    incomplete;
    complete = incomplete = [];
    obs;
  }

let witness_spec res loc =
  List.find_map
    (fun (spec, locs) -> if List.mem loc locs then Some spec else None)
    res.per_spec
