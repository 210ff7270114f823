(* Rader end-to-end benchmark: wall-clock time to a verdict in every
   user-facing mode (check, coverage, verify, lint, online, serve) on one
   seeded program mix, every verdict checked against perfbench/expected.txt.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--expected FILE] [--trace-out FILE] [--oracle]

   --trace 0 prints the end-to-end metrics; --trace 1 alternates the
   untraced rounds with traced rounds (spans around every layer call,
   plus the rung-below calls of the layer ladder and an untimed repeat
   of the check jobs with Rader_obs counting on) and prints the
   per-layer metrics. The last stdout line is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.
   --oracle cross-checks the check verdicts with Rader_core.Oracle
   instead. See perfbench/README.md. *)

open Rader_runtime
open Rader_core
open Rader_benchsuite
module An = Rader_analysis
module Obs = Rader_obs.Obs
module Chrome_trace = Rader_obs.Chrome_trace
module Reach = Rader_reach.Reach
module Online = Rader_sched.Online
module Server = Rader_serve.Server
module Client = Rader_serve.Client
module Proto = Rader_serve.Proto
module Rng = Rader_support.Rng

(* ---------- spans (recorded only in traced rounds) ---------- *)

type span = {
  sp_name : string;
  sp_parent : string;
  sp_job : int;  (** spans of one job share this id *)
  sp_round : int;
  sp_t0 : float;  (** microseconds *)
  sp_t1 : float;
  sp_weight : float;  (** 1 / the passes of the sample it was recorded in *)
}

let tracing = ref false
let round_no = ref 0
let job_no = ref 0
let spans : span list ref = ref []
let open_names : string list ref = ref []

let add_span ~name ~t0 ~t1 =
  let parent = match !open_names with p :: _ -> p | [] -> "" in
  spans :=
    {
      sp_name = name;
      sp_parent = parent;
      sp_job = !job_no;
      sp_round = !round_no;
      sp_t0 = t0;
      sp_t1 = t1;
      sp_weight = 1.0;
    }
    :: !spans

(* Gives the spans recorded since [mark] (an earlier value of [!spans])
   the weight [w]. *)
let reweight ~mark w =
  let rec go l =
    if l == mark then l
    else match l with [] -> [] | s :: rest -> { s with sp_weight = w } :: go rest
  in
  spans := go !spans

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = Obs.now_us () in
    open_names := name :: !open_names;
    let finish () =
      open_names := List.tl !open_names;
      add_span ~name ~t0 ~t1:(Obs.now_us ())
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let new_job () = incr job_no

(* Counts and counter deltas of the current traced round, taken on the
   first pass of each sample only. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let first_pass = ref true

let count name v =
  if !tracing && !first_pass then
    Hashtbl.replace counts name
      (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)

let count_obs prefix (c : Obs.counters) =
  List.iter (fun (k, v) -> count (prefix ^ k) (float_of_int v)) (Obs.to_assoc c)

(* Runs [f] with Rader_obs counting on and adds the counter deltas,
   prefixed, to the round's counts. *)
let counted prefix f =
  let _, delta = Obs.with_enabled f in
  count_obs prefix delta

(* ---------- verdicts ---------- *)

type result = {
  code : int;  (** 0 clean, 1 races/findings, 3 contained failure, 4 shed *)
  labels : string list;
  value : int option;  (** program result, when the run finished *)
  confirmed : bool;  (** online: the serial replay confirms every race *)
}

let result ?(confirmed = true) ~code ~labels value =
  { code; labels = List.sort_uniq compare labels; value; confirmed }

let report_labels = List.map (fun r -> r.Report.subject_label)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable mismatches : string list;
}

let tally = { attempted = 0; failed = 0; wrong = 0; mismatches = [] }
let expected : Expected.t ref = ref (Hashtbl.create 1)

let score ~prog ~mode ~config ~checksum r =
  tally.attempted <- tally.attempted + 1;
  if r.code >= 3 then tally.failed <- tally.failed + 1;
  let problems =
    Expected.check !expected ~prog ~mode ~config ~code:r.code ~labels:r.labels
    @ (match (checksum, r.value) with
      | Some c, Some v when c <> v ->
          [ Printf.sprintf "result %d, plain checksum %d" v c ]
      | _ -> [])
    @ if r.confirmed then [] else [ "serial replay does not confirm" ]
  in
  if problems <> [] then begin
    tally.wrong <- tally.wrong + 1;
    let msg = Printf.sprintf "%s %s %s: %s" prog mode config (String.concat "; " problems) in
    if List.length tally.mismatches < 20 && not (List.mem msg tally.mismatches) then
      tally.mismatches <- msg :: tally.mismatches
  end

(* ---------- programs and configurations ---------- *)

type detector = Peer_set_det | Sp_plus_det

type config = { cname : string; detector : detector; spec : Steal_spec.t }

(* The four paper Fig. 7 configurations, as bench/main.ml builds them. *)
let spec_updates ~k =
  Steal_spec.at_local_indices ~policy:Steal_spec.Reduce_eagerly [ max 1 (k / 2) ]

let spec_reductions ~k ~seed =
  let rng = Rng.create seed in
  let pick () = 1 + Rng.int rng (max 1 k) in
  let rec distinct3 () =
    let a = pick () and b = pick () and c = pick () in
    if a <> b && b <> c && a <> c then List.sort compare [ a; b; c ]
    else if k < 3 then [ 1; 2; 3 ]
    else distinct3 ()
  in
  Steal_spec.at_local_indices
    ~policy:(Steal_spec.Reduce_schedule (fun ord -> if ord = 3 then 1 else 0))
    (distinct3 ())

let configs ~k ~seed =
  [
    { cname = "peer_set"; detector = Peer_set_det; spec = Steal_spec.none };
    { cname = "no_steals"; detector = Sp_plus_det; spec = Steal_spec.none };
    { cname = "check_updates"; detector = Sp_plus_det; spec = spec_updates ~k };
    {
      cname = "check_reductions";
      detector = Sp_plus_det;
      spec = spec_reductions ~k ~seed;
    };
  ]

type prog_state = {
  p : Mix.prog;
  checksum : int option;
  cfgs : config list;
  served : Engine.ctx -> int;  (** the program the daemon resolves *)
  served_checksum : int option;
  serve_cfgs : (string * string) list;
      (** the check configurations the wire syntax can express: name and
          spec string *)
}

type state = {
  seed : int;
  progs : prog_state list;
  mutable daemon : (Server.t * Client.t) option;  (** live only while serve jobs run *)
  mutable shed : int;  (** shed answers of the daemons stopped so far *)
  mutable serve_seed : int;
}

(* ---------- one job per mode ---------- *)

let run_check ps cfg =
  let eng = Engine.create ~spec:cfg.spec () in
  let races =
    match cfg.detector with
    | Peer_set_det ->
        let d = Peer_set.attach eng in
        fun () -> Peer_set.races d
    | Sp_plus_det ->
        let d = Sp_plus.attach eng in
        fun () -> Sp_plus.races d
  in
  let r = Engine.run_result eng ps.p.Mix.cilk in
  let races = races () in
  let code = match r with Error _ -> 3 | Ok _ -> if races = [] then 0 else 1 in
  result ~code ~labels:(report_labels races) (Result.to_option r)

let replay_spans name (res : Coverage.result) =
  match res.Coverage.obs with
  | Some o when !tracing ->
      List.iter
        (fun (s : Coverage.span) ->
          add_span ~name ~t0:s.Coverage.span_t0_us ~t1:s.Coverage.span_t1_us)
        o.Coverage.obs_spans
  | _ -> ()

let run_coverage ps =
  let res = Coverage.exhaustive_check ps.p.Mix.cilk in
  count "coverage.specs" (float_of_int res.Coverage.n_specs);
  count "coverage.replays" (float_of_int res.Coverage.n_run);
  (if !tracing then
     let prof = res.Coverage.prof in
     let family = Coverage.all_specs ~k:prof.Coverage.k ~d:prof.Coverage.d in
     count "coverage.prunable"
       (float_of_int
          (List.length family - List.length (Coverage.prune_specs prof family))));
  let code =
    if not res.Coverage.complete then 3
    else if res.Coverage.reports = [] then 0
    else 1
  in
  result ~code ~labels:(report_labels res.Coverage.reports) None

let witness_labels (w : An.Witness.t) =
  List.filter_map
    (fun (r : An.Witness.row) ->
      match r.An.Witness.r_verdict with
      | An.Witness.Racy _ -> Some r.An.Witness.r_label
      | An.Witness.Clean _ -> None)
    w.An.Witness.rows

let witness_code (w : An.Witness.t) =
  if not w.An.Witness.complete then 3
  else if w.An.Witness.racy_locs = [] then 0
  else 1

let run_verify ps =
  match An.Witness.verify ~with_obs:!tracing ~name:ps.p.Mix.name ps.p.Mix.cilk with
  | Error _ -> result ~code:3 ~labels:[] None
  | Ok w ->
      replay_spans "witness.replay" w.An.Witness.res;
      count "witness.specs" (float_of_int w.An.Witness.n_specs);
      count "witness.replays" (float_of_int w.An.Witness.n_replays);
      count "witness.skipped" (float_of_int w.An.Witness.n_skipped);
      result ~code:(witness_code w) ~labels:(witness_labels w) None

(* The `rader lint` path of bin/rader.ml: IR build, static/dynamic
   cross-check, symbolic verification (for R006), rules. *)
let run_lint ps =
  let prog = ps.p.Mix.cilk in
  match span "lint.ir" (fun () -> An.Ir.of_program prog) with
  | Error _ -> result ~code:3 ~labels:[] None
  | Ok ir ->
      let cc = span "lint.cross_check" (fun () -> An.Verdict.cross_check prog ir) in
      let verify =
        span "lint.verify" (fun () ->
            match An.Witness.verify ~name:ps.p.Mix.name prog with
            | Ok w -> Some w
            | Error _ -> None)
      in
      let findings = span "lint.rules" (fun () -> An.Lint.run ~program:prog ?verify ir) in
      let code = if Result.is_error cc then 3 else if findings = [] then 0 else 1 in
      result ~code
        ~labels:
          (List.map (fun f -> f.An.Lint.rule ^ "@" ^ f.An.Lint.subject) findings)
        None

let kind_subjects races kind =
  List.filter_map
    (fun r -> if r.Report.kind = kind then Some r.Report.subject else None)
    races
  |> List.sort_uniq compare

(* The serial re-check of `rader online`: replay the steal trace as a
   spec under SP+ and Peer-Set; they must find every online race. *)
let confirm prog (out : Online.outcome) =
  out.Online.races = []
  ||
  match Steal_trace.to_spec out.Online.trace prog with
  | Error _ -> false
  | Ok spec ->
      let eng = Engine.create ~spec () in
      let sp = Sp_plus.attach eng in
      ignore (Engine.run_result eng prog);
      let eng2 = Engine.create ~spec () in
      let pe = Peer_set.attach eng2 in
      ignore (Engine.run_result eng2 prog);
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      subset
        (kind_subjects out.Online.races Report.Determinacy_race)
        (Sp_plus.racy_locs sp)
      && subset
           (kind_subjects out.Online.races Report.View_read_race)
           (kind_subjects (Peer_set.races pe) Report.View_read_race)

let run_online ~seed ps =
  let cfg = Online.default ~workers:1 ~seed () in
  let out = span "online.run" (fun () -> Online.run cfg ps.p.Mix.cilk) in
  let confirmed = span "online.confirm" (fun () -> confirm ps.p.Mix.cilk out) in
  count "online.events" (float_of_int out.Online.events);
  count "online.tasks" (float_of_int out.Online.n_tasks);
  count "online.parks" (float_of_int out.Online.n_parks);
  let code =
    match out.Online.value with
    | Error _ -> 3
    | Ok _ -> if out.Online.races = [] then 0 else 1
  in
  result ~confirmed ~code ~labels:(report_labels out.Online.races)
    (Result.to_option out.Online.value)

(* [find s sub i] is the first index >= [i] where [sub] occurs in [s]. *)
let find s sub i =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

(* "determinacy race on LABEL: ..." -> LABEL *)
let label_of_rendered s =
  let key = " race on " in
  match find s key 0 with
  | None -> s
  | Some i -> (
      let start = i + String.length key in
      match find s ": " start with
      | Some j -> String.sub s start (j - start)
      | None -> String.sub s start (String.length s - start))

let run_serve st ps spec =
  st.serve_seed <- st.serve_seed + 1;
  let sub =
    {
      Proto.kind = Proto.Check;
      program = ps.p.Mix.name;
      scale = ps.p.Mix.serve_scale;
      seed = st.serve_seed;
      spec;
      density = 0.5;
      max_events = None;
      deadline_s = None;
      prune = false;
    }
  in
  let client = match st.daemon with Some (_, c) -> c | None -> invalid_arg "no daemon" in
  match span "serve.request" (fun () -> Client.submit client sub) with
  | Ok (Client.Verdict v) ->
      let code =
        match v.Proto.status with
        | Proto.Clean -> 0
        | Proto.Races -> 1
        | Proto.Partial -> 3
      in
      result ~code ~labels:(List.map label_of_rendered v.Proto.races) v.Proto.v_result
  | Ok Client.Shed -> result ~code:4 ~labels:[] None
  | Ok (Client.Fault _ | Client.Rejected _) | Error _ -> result ~code:3 ~labels:[] None

(* ---------- the in-process daemon ---------- *)

let start_daemon () =
  let server =
    Server.start (Server.default_config ~addr:(Server.Tcp ("127.0.0.1", 0)))
  in
  Obs.set_enabled false;
  match Client.connect (Server.bound_addr server) with
  | Ok client -> (server, client)
  | Error msg ->
      ignore (Server.stop server);
      failwith msg

let stop_daemon (server, client) =
  Client.close client;
  ignore (Server.stop server)

(* "shed":N in the daemon's health JSON *)
let shed_count json =
  let key = "\"shed\":" in
  match find json key 0 with
  | Some i ->
      let start = i + String.length key in
      Scanf.sscanf (String.sub json start (String.length json - start)) "%d" Fun.id
  | None -> 0

(* Runs [f] with a daemon and one connection to it, started and stopped
   outside [f]. A daemon stays up only while serve jobs run: its idle
   worker domains take part in every minor collection of the process,
   which made the one-shot modes 10-50% slower and far more sensitive to
   the host's load, and `rader check` and the other one-shot modes never
   run beside a daemon. *)
let with_daemon st f =
  let server, client = start_daemon () in
  st.daemon <- Some (server, client);
  Fun.protect f ~finally:(fun () ->
      st.shed <- st.shed + shed_count (Server.health_json server);
      st.daemon <- None;
      stop_daemon (server, client))

(* ---------- phases: one mode over the whole mix ---------- *)

let modes = [ "check"; "coverage"; "verify"; "lint"; "online"; "serve" ]

let run_mode st mode =
  List.iter
    (fun ps ->
      let prog = ps.p.Mix.name in
      let job ?(config = "-") ?(checksum = ps.checksum) name f =
        new_job ();
        score ~prog ~mode ~config ~checksum (span name f)
      in
      match mode with
      | "check" ->
          List.iter
            (fun cfg ->
              let name =
                match cfg.detector with
                | Peer_set_det -> "check.peer_set"
                | Sp_plus_det -> "check.sp_plus"
              in
              job ~config:cfg.cname name (fun () -> run_check ps cfg))
            ps.cfgs
      | "coverage" -> job "coverage.job" (fun () -> run_coverage ps)
      | "verify" -> job "verify.job" (fun () -> run_verify ps)
      | "lint" -> job "lint.job" (fun () -> run_lint ps)
      | "online" -> job "online.job" (fun () -> run_online ~seed:st.seed ps)
      | "serve" ->
          List.iter
            (fun (config, spec) ->
              job ~config ~checksum:ps.served_checksum "serve.job" (fun () ->
                  run_serve st ps spec))
            ps.serve_cfgs
      | m -> invalid_arg m)
    st.progs

(* Shortest span of one sample, in seconds. *)
let sample_s = 0.15

(* The daemon runs with Rader_obs counting on, as `rader serve` does; the
   one-shot modes run with it off, as the CLI does without --metrics.
   One sample repeats the mode's pass over the mix until it spans
   [min_sample] seconds and is the mean wall-clock time per pass. A
   traced sample does the same, and its spans count 1 / passes each:
   a single pass right after the full collection runs up to ~40% faster
   than a pass inside a sample. *)
let sample ~min_sample st mode =
  (* every sample starts from the same collected heap *)
  Gc.full_major ();
  if mode = "serve" then Obs.set_enabled true;
  let mark = !spans in
  let t0 = Unix.gettimeofday () in
  let rec go passes =
    span ("mode." ^ mode) (fun () -> run_mode st mode);
    first_pass := false;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_sample then (dt, passes) else go (passes + 1)
  in
  let dt, passes = go 1 in
  first_pass := true;
  if !tracing then reweight ~mark (1.0 /. float_of_int passes);
  if mode = "serve" then Obs.set_enabled false;
  dt /. float_of_int passes

(* A serve sample gets a fresh daemon, warmed by one untraced pass: the
   first pass on a fresh daemon ran 20-65% slower than later ones. *)
let timed_mode ~min_sample st mode =
  if mode <> "serve" then sample ~min_sample st mode
  else
    with_daemon st (fun () ->
        let traced = !tracing in
        tracing := false;
        run_mode st mode;
        tracing := traced;
        sample ~min_sample st mode)

let round ?(min_sample = 0.0) st =
  List.map (fun m -> (m, timed_mode ~min_sample st m)) modes

(* ---------- the layer ladder: rung-below calls (traced rounds) ---------- *)

(* The ladder and the traced modes run with counting off, as the timed
   modes do, so that the rungs' times add up to the untraced ones; the
   check jobs' counter deltas come from this untimed repeat instead. *)
let count_checks st =
  List.iter
    (fun ps ->
      List.iter
        (fun cfg ->
          let prefix =
            match cfg.detector with Peer_set_det -> "peer_set." | Sp_plus_det -> "sp_plus."
          in
          counted prefix (fun () -> ignore (run_check ps cfg)))
        ps.cfgs)
    st.progs

let ladder st =
  List.iter
    (fun ps ->
      let prog = ps.p.Mix.cilk in
      new_job ();
      (* check: plain -> engine, null tool -> engine under the spec ->
         detector (the detector run itself is the check.* job span) *)
      List.iter
        (fun cfg ->
          (match ps.p.Mix.plain with
          | Some plain -> ignore (span "plain" plain)
          | None -> ());
          let suffix = match cfg.detector with Peer_set_det -> ".ps" | Sp_plus_det -> ".sp" in
          span ("engine.empty" ^ suffix) (fun () ->
              ignore (Engine.run_result (Engine.create ()) prog));
          span ("engine.steal" ^ suffix) (fun () ->
              ignore (Engine.run_result (Engine.create ~spec:cfg.spec ()) prog));
          if cfg.detector = Sp_plus_det then
            span "reach.depa" (fun () ->
                let eng = Engine.create ~spec:cfg.spec () in
                ignore (Sp_plus.attach ~reach:Reach.Depa eng);
                ignore (Engine.run_result eng prog)))
        ps.cfgs;
      (* coverage: the profiling run, then the sweep's replays as
         exhaustive_check runs them (one recycled engine + SP+ pair) *)
      let prof = span "coverage.profile" (fun () -> Coverage.profile prog) in
      let eng = Engine.create () in
      let det = Sp_plus.attach eng in
      List.iter
        (fun spec ->
          span "coverage.replay" (fun () ->
              Engine.reset ~spec eng;
              Sp_plus.reset det;
              ignore (Engine.run_result eng prog)))
        (Coverage.all_specs ~k:prof.Coverage.k ~d:prof.Coverage.d);
      (* verify = IR build + symbolic sweep + symbolic analysis *)
      (match span "ir.build" (fun () -> An.Ir.of_program prog) with
      | Error _ -> ()
      | Ok ir ->
          let res =
            span "witness.sweep" (fun () ->
                Coverage.exhaustive_check ~symbolic:true prog)
          in
          let sym =
            span "symbolic.scan" (fun () ->
                An.Symbolic.analyze ~prof:res.Coverage.prof ir)
          in
          count "trace.words" (float_of_int (Obj.reachable_words (Obj.repr ir)));
          (* a location's pair scan stops early only on a spec-independent
             witness; otherwise it visits every pair, truncating past the
             default 100_000-pair budget *)
          let always = An.Symbolic.always_racy_locs sym in
          let per_loc = Hashtbl.create 64 in
          List.iter
            (fun (a : Engine.access) ->
              Hashtbl.replace per_loc a.Engine.a_loc
                (1 + Option.value (Hashtbl.find_opt per_loc a.Engine.a_loc) ~default:0))
            (An.Ir.accesses ir);
          Hashtbl.iter
            (fun loc n ->
              if (not (List.mem loc always)) && n * (n - 1) / 2 > 100_000 then
                count "symbolic.truncated_locs" 1.0)
            per_loc);
      (* online: the serial detector stack on the same program *)
      span "online.serial" (fun () ->
          let eng = Engine.create () in
          ignore (Sp_plus.attach ~reach:Reach.Depa eng);
          ignore (Peer_set.attach ~reach:Reach.Depa eng);
          ignore (Engine.run_result eng prog));
      (* serve: the same checks run directly *)
      List.iter
        (fun (_, wire) ->
          match Steal_spec.parse ~seed:0 ~density:0.5 wire with
          | Error msg -> failwith msg
          | Ok spec ->
              span "serve.direct" (fun () ->
                  let eng = Engine.create ~spec () in
                  ignore (Sp_plus.attach eng);
                  ignore (Engine.run_result eng ps.served)))
        ps.serve_cfgs)
    st.progs

(* ---------- statistics ---------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      let a = Array.of_list s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let i = int_of_float (Float.round (q *. float_of_int (Array.length a - 1))) in
      a.(max 0 (min (Array.length a - 1) i))

(* ---------- set-up ---------- *)

(* One set-up: build the mix's inputs, derive each program's reference
   answers and Fig. 7 specs, start the daemon and connect to it. *)
let setup_once ~seed ~workload =
  let progs =
    List.map
      (fun (p : Mix.prog) ->
        let k = (Coverage.profile p.Mix.cilk).Coverage.k in
        let served =
          match Demos.resolve ~scale:p.Mix.serve_scale p.Mix.name with
          | Ok prog -> prog
          | Error msg -> failwith msg
        in
        (* SP+ with no steals and under check_updates; the daemon runs
           SP+ only, and check_reductions' reduce schedule has no wire
           syntax *)
        let serve_cfgs =
          let k = (Coverage.profile served).Coverage.k in
          [ ("no_steals", "none"); ("check_updates", string_of_int (max 1 (k / 2))) ]
        in
        let served_checksum =
          if List.mem p.Mix.name Suite.names then
            Some ((Suite.find ~scale:p.Mix.serve_scale p.Mix.name).Bench_def.plain ())
          else None
        in
        {
          p;
          checksum = Option.map (fun f -> f ()) p.Mix.plain;
          cfgs = configs ~k ~seed;
          served;
          served_checksum;
          serve_cfgs;
        })
      (Mix.build ~seed workload)
  in
  let daemon = start_daemon () in
  { seed; progs; daemon = Some daemon; shed = 0; serve_seed = seed * 1_000_000 }

(* Set-ups until at least [min_reps] of them span [min_total] seconds.
   Each set-up's daemon is stopped once it is timed (see [with_daemon]).
   Returns the last set-up's state and every set-up's wall-clock time. *)
let setup ~seed ~workload ~min_reps ~min_total =
  let rec go i times =
    let t0 = Unix.gettimeofday () in
    let st = setup_once ~seed ~workload in
    let times = (Unix.gettimeofday () -. t0) :: times in
    Option.iter stop_daemon st.daemon;
    st.daemon <- None;
    if i < min_reps || List.fold_left ( +. ) 0.0 times < min_total then go (i + 1) times
    else (st, times)
  in
  go 1 []

(* ---------- output ---------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.wrong = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

let print_tally () =
  Printf.printf "jobs %d  wrong_verdicts %d  failed_pct %.3f\n" tally.attempted tally.wrong
    (100.0 *. float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
  List.iter (fun m -> Printf.printf "  WRONG %s\n" m) (List.rev tally.mismatches)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* ---------- per-layer metrics from the traced rounds' spans ---------- *)

let durations round_spans name =
  List.filter_map
    (fun s -> if s.sp_name = name then Some ((s.sp_t1 -. s.sp_t0) /. 1e6) else None)
    round_spans

(* Per pass: a span recorded in a sample of n passes counts 1 / n. *)
let sum_spans round_spans name =
  List.fold_left
    (fun a s -> if s.sp_name = name then a +. ((s.sp_t1 -. s.sp_t0) /. 1e6 *. s.sp_weight) else a)
    0.0 round_spans

(* [untraced] is each mode's median pass time over the untraced rounds
   that alternate with the traced ones. *)
let layer_metrics ~round_spans ~round_counts ~untraced =
  (* per traced round: every derived value; then the median over rounds *)
  let per_round =
    List.map2
      (fun sps (cts : (string, float) Hashtbl.t) ->
        let s = sum_spans sps in
        let c n = Option.value (Hashtbl.find_opt cts n) ~default:0.0 in
        let ratio a b = if b > 0.0 then a /. b else 0.0 in
        let plain = s "plain" in
        let empty_ps = s "engine.empty.ps" and empty_sp = s "engine.empty.sp" in
        let empty = empty_ps +. empty_sp in
        let with_plain =
          List.filter_map (fun sp -> if sp.sp_name = "plain" then Some sp.sp_job else None) sps
        in
        let empty_with_plain =
          let sps = List.filter (fun sp -> List.mem sp.sp_job with_plain) sps in
          sum_spans sps "engine.empty.ps" +. sum_spans sps "engine.empty.sp"
        in
        let steal_ps = s "engine.steal.ps" and steal_sp = s "engine.steal.sp" in
        let det_ps = s "check.peer_set" and det_sp = s "check.sp_plus" in
        let check_self =
          [ plain; empty -. plain; steal_ps +. steal_sp -. empty; det_ps -. steal_ps;
            det_sp -. steal_sp ]
        in
        let events = c "peer_set.events" +. c "sp_plus.events" in
        let accesses =
          c "peer_set.reads" +. c "peer_set.writes" +. c "sp_plus.reads"
          +. c "sp_plus.writes"
        in
        let sp_accesses = c "sp_plus.reads" +. c "sp_plus.writes" in
        let mode m = s ("mode." ^ m) in
        let verify_parts = s "ir.build" +. s "witness.sweep" +. s "symbolic.scan" in
        let coverage_parts = s "coverage.profile" +. s "coverage.replay" in
        let traced_total = List.fold_left (fun a m -> a +. mode m) 0.0 modes in
        let untraced_total = List.fold_left (fun a (_, t) -> a +. t) 0.0 untraced in
        [
          ("plain.s", "s", plain);
          ("engine.empty_s", "s", empty -. plain);
          ("engine.steal_s", "s", steal_ps +. steal_sp -. empty);
          ("engine.events", "count", events);
          ("engine.accesses", "count", accesses);
          ("engine.ns_per_event", "ns", 1e9 *. ratio (steal_ps +. steal_sp -. plain) events);
          ("engine.x_plain", "x", ratio empty_with_plain plain);
          ("peer_set.self_s", "s", det_ps -. steal_ps);
          ("sp_plus.self_s", "s", det_sp -. steal_sp);
          ("sp_plus.ns_per_access", "ns", 1e9 *. ratio (det_sp -. steal_sp) sp_accesses);
          (* paper Fig. 8: SP+ over the empty tool *)
          ("sp_plus.fig8", "x", ratio det_sp empty_sp);
          ("sp_plus.shadow_lookups", "count", c "sp_plus.shadow_lookups");
          ("sp_plus.dset_finds", "count", c "sp_plus.dset_finds");
          ("sp_plus.dset_unions", "count", c "sp_plus.dset_unions");
          ("sp_plus.compress_steps", "count", c "sp_plus.dset_compress_steps");
          ("reach.depa_self_s", "s", s "reach.depa" -. steal_sp);
          ("coverage.profile_s", "s", s "coverage.profile");
          ("coverage.specs", "count", c "coverage.specs");
          ("coverage.replays", "count", c "coverage.replays");
          ("coverage.replay_s", "s", s "coverage.replay");
          ("coverage.prunable_pct", "%", 100.0 *. ratio (c "coverage.prunable") (c "coverage.specs"));
          ("ir.build_s", "s", s "ir.build");
          ("trace.heap_mb", "MiB", c "trace.words" *. float_of_int (Sys.word_size / 8) /. 1048576.0);
          ("symbolic.scan_s", "s", s "symbolic.scan");
          ("symbolic.truncated_locs", "count", c "symbolic.truncated_locs");
          ("witness.sweep_s", "s", s "witness.sweep");
          ("witness.replays", "count", c "witness.replays");
          ("witness.replay_s", "s", s "witness.replay");
          ("witness.skipped_pct", "%", 100.0 *. ratio (c "witness.skipped") (c "witness.specs"));
          ("lint.cross_check_s", "s", s "lint.cross_check");
          ("lint.rules_s", "s", s "lint.rules");
          ("online.run_s", "s", s "online.run");
          ("online.events", "count", c "online.events");
          ("online.tasks", "count", c "online.tasks");
          ("online.parks", "count", c "online.parks");
          ("online.confirm_s", "s", s "online.confirm");
          ("online.x_serial", "x", ratio (s "online.run") (s "online.serial"));
          ("serve.overhead_s", "s", mode "serve" -. s "serve.direct");
          (* the rungs' summed self times; [gap] below turns their
             medians into the ladder gaps *)
          ("ladder.check_gap_pct", "%", List.fold_left ( +. ) 0.0 check_self);
          ("ladder.coverage_gap_pct", "%", coverage_parts);
          ("ladder.verify_gap_pct", "%", verify_parts);
          ("bench.tracing_overhead_pct", "%", 100.0 *. (ratio traced_total untraced_total -. 1.0));
        ])
      round_spans round_counts
  in
  (* "rungs add up": the rungs' self times, all measured in traced
     rounds, against the untraced time a user waits, which no rung
     contains *)
  let gap name v =
    match List.assoc_opt name [ ("ladder.check_gap_pct", "check");
                                ("ladder.coverage_gap_pct", "coverage");
                                ("ladder.verify_gap_pct", "verify") ] with
    | None -> v
    | Some m ->
        let total = List.assoc m untraced in
        if total > 0.0 then 100.0 *. Float.abs (total -. v) /. total else 0.0
  in
  let names = List.map (fun (n, u, _) -> (n, u)) (List.hd per_round) in
  let rtts = durations (List.concat round_spans) "serve.request" in
  List.map
    (fun (n, u) ->
      ( n,
        u,
        gap n
          (median
             (List.map
                (fun r ->
                  List.find_map (fun (n', _, v) -> if n = n' then Some v else None) r
                  |> Option.get)
                per_round)) ))
    names
  @ [
      ("serve.rtt_p50_s", "s", percentile rtts 0.5);
      ("serve.rtt_p90_s", "s", percentile rtts 0.9);
    ]

let write_trace path workload seed =
  let tr = Chrome_trace.create () in
  Chrome_trace.set_process_name tr (Printf.sprintf "perfbench %s seed %d" workload seed);
  Chrome_trace.set_thread_name tr ~tid:0 "main";
  List.iter
    (fun s ->
      Chrome_trace.add_complete ~cat:"layer"
        ~args:
          [
            ("job", string_of_int s.sp_job);
            ("round", string_of_int s.sp_round);
            ("parent", s.sp_parent);
          ]
        tr ~name:s.sp_name ~tid:0 ~ts_us:s.sp_t0 ~dur_us:(s.sp_t1 -. s.sp_t0) ())
    (List.rev !spans);
  Chrome_trace.save tr path

(* ---------- one-off cross-check of the racy verdicts ---------- *)

(* Replays each program of the mix with full recording under the
   no-steal and check_updates specs and compares the brute-force
   Rader_core.Oracle with the expected labels of the matching check
   jobs: view-read races with Peer-Set's, determinacy races with SP+'s. *)
let oracle_check st =
  let bad = ref 0 in
  List.iter
    (fun ps ->
      List.iter
        (fun cfg ->
          let eng = Engine.create ~spec:cfg.spec ~record:true () in
          ignore (Engine.run_result eng ps.p.Mix.cilk);
          let got =
            match cfg.detector with
            | Peer_set_det ->
                List.map (Printf.sprintf "reducer #%d") (Oracle.view_read_races eng)
            | Sp_plus_det -> List.map (Engine.loc_label eng) (Oracle.determinacy_races eng)
          in
          let got = List.sort_uniq compare got in
          let problems =
            Expected.check !expected ~prog:ps.p.Mix.name ~mode:"check" ~config:cfg.cname
              ~code:(if got = [] then 0 else 1) ~labels:got
          in
          if problems <> [] then incr bad;
          Printf.printf "%-11s %-17s oracle [%s] %s\n" ps.p.Mix.name cfg.cname
            (String.concat "," got)
            (if problems = [] then "agrees" else String.concat "; " problems))
        (List.filter (fun c -> c.cname <> "check_reductions") ps.cfgs))
    st.progs;
  !bad

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let expected_path = ref "perfbench/expected.txt" and trace_out = ref "" in
  let oracle = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Mix.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--expected", Arg.Set_string expected_path, "FILE expected verdicts");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the traced rounds");
      ("--oracle", Arg.Set oracle, " cross-check the check verdicts with Rader_core.Oracle");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Mix.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  expected := Expected.load !expected_path;
  let st, setup_times = setup ~seed:!seed ~workload:!workload ~min_reps:3 ~min_total:1.0 in
  if !oracle then exit (if oracle_check st = 0 then 0 else 1);
  (* warm-up round: caches, lazy set-up; its verdicts count too. The
     peak heap is taken before its serve pass: set-up plus one pass over
     every one-shot job. The timed rounds repeat those jobs, and the
     heap keeps growing through them by an amount that changes from
     process to process (70-110 MiB on fine-grain, against 21-22 MiB
     here). The daemon's worker domains, which `rader serve` runs in a
     process of its own, raised it to 45 MiB in most fine-grain
     processes and to 57-68 MiB in one in five. *)
  List.iter (fun m -> if m <> "serve" then ignore (timed_mode ~min_sample:0.0 st m)) modes;
  let heap = peak_heap_mb () in
  ignore (timed_mode ~min_sample:0.0 st "serve");
  let run_rounds budget =
    let t0 = Unix.gettimeofday () in
    let rec go acc =
      if Unix.gettimeofday () -. t0 >= budget && List.length acc >= 3 then List.rev acc
      else go (round ~min_sample:sample_s st :: acc)
    in
    go []
  in
  let mode_samples rounds m = List.map (List.assoc m) rounds in
  if !trace = 0 then begin
    let rounds = run_rounds !seconds in
    (* the raw samples, for run.py to pool over several processes *)
    let floats xs = "[" ^ String.concat ", " (List.map json_number xs) ^ "]" in
    Printf.printf "samples {%s}\n"
      (String.concat ", "
         (List.map
            (fun m -> Printf.sprintf "\"%s_s\": %s" m (floats (mode_samples rounds m)))
            modes
         @ [
             Printf.sprintf "\"setup_s\": %s" (floats setup_times);
             Printf.sprintf "\"peak_heap_mb\": %s" (floats [ heap ]);
           ]));
    print_tally ();
    print_result
      (List.map (fun m -> (m ^ "_s", "s", median (mode_samples rounds m))) modes
      @ [ ("setup_s", "s", median setup_times); ("peak_heap_mb", "MiB", heap) ])
  end
  else begin
    (* untraced and traced rounds alternate, so that a drift in the
       host's speed hits both alike *)
    let shed_before = st.shed in
    let t0 = Unix.gettimeofday () in
    let untraced = ref [] and round_spans = ref [] and round_counts = ref [] in
    let rec go n =
      if n >= 3 && Unix.gettimeofday () -. t0 >= !seconds then ()
      else begin
        untraced := round ~min_sample:sample_s st :: !untraced;
        tracing := true;
        incr round_no;
        Hashtbl.reset counts;
        ignore (round ~min_sample:sample_s st);
        ladder st;
        count_checks st;
        let mine = List.filter (fun s -> s.sp_round = !round_no) !spans in
        round_spans := mine :: !round_spans;
        round_counts := Hashtbl.copy counts :: !round_counts;
        tracing := false;
        go (n + 1)
      end
    in
    go 0;
    let untraced = List.map (fun m -> (m, median (mode_samples !untraced m))) modes in
    List.iter (fun (m, t) -> Printf.printf "untraced %-20s %14.6f s\n" (m ^ "_s") t) untraced;
    if !trace_out <> "" then write_trace !trace_out !workload !seed;
    let layers =
      layer_metrics ~round_spans:(List.rev !round_spans)
        ~round_counts:(List.rev !round_counts) ~untraced
    in
    List.iter (fun (n, u, v) -> Printf.printf "%-28s %14.6f %s\n" n v u) layers;
    print_tally ();
    print_result
      (layers @ [ ("serve.retries", "count", float_of_int (st.shed - shed_before)) ])
  end
