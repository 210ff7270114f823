(* The two program mixes the benchmark runs. Every input is derived
   from the workload seed; the same seed builds the same programs. *)

open Rader_runtime
open Rader_benchsuite

type prog = {
  name : string;  (** registry name, also the verdict-file key *)
  cilk : Engine.ctx -> int;
  plain : (unit -> int) option;  (** uninstrumented twin, when one exists *)
  serve_scale : float;
      (** scale the daemon resolves the same program name at; the daemon
          builds suite inputs from its own default seed, so its job
          differs from [cilk] where the program is seeded *)
}

let names = [ "fine-grain"; "wide-sync-races" ]

let of_bench ~serve_scale (b : Bench_def.t) =
  {
    name = b.Bench_def.name;
    cilk = b.Bench_def.cilk;
    plain = Some b.Bench_def.plain;
    serve_scale;
  }

(* fine-grain: deep recursion, tiny strands, K = 1. The suite's own fib
   and knapsack floor at n = 21 and 24 items below scale 1, where one
   `verify` takes seconds, so the benchmark builds them one size down
   with the suite's constructors. *)
let fine_grain ~seed =
  let n_items = 15 in
  let of_bench = of_bench ~serve_scale:0.25 in
  [
    of_bench (Bm_fib.bench ~n:16);
    of_bench (Bm_knapsack.bench ~seed ~n_items ~capacity:50 ~spawn_depth:(n_items - 8));
    of_bench (Bm_nqueens.bench ~n:7 ~spawn_depth:3);
  ]

(* wide-sync: parallel loops with wide sync blocks (K = 4..9) and
   31-185-spec §7 families; the suite's input formulas at scale [s],
   pbfs scaled further down. The daemon serves them at scale 0.1: at
   0.02 its own hand-offs made up ~75% of a round trip. *)
let wide_sync ~seed =
  let of_bench = of_bench ~serve_scale:0.1 in
  let s = 0.1 in
  let n f = max 1 (int_of_float (f *. s)) in
  let pbfs = 0.02 in
  let np f = max 1 (int_of_float (f *. pbfs)) in
  [
    of_bench (Bm_collision.bench ~seed ~n:(n 4000.) ~world:50.0 ~cell:2.5);
    of_bench (Bm_pbfs.bench ~seed ~n:(np 30000.) ~m:(np 190000.) ~grain:16);
    of_bench (Bm_dedup.bench ~seed ~size:(n 262144.) ~block:2048);
    of_bench (Bm_ferret.bench ~seed ~db:(n 512.) ~queries:(n 192.) ~dim:16 ~topk:3);
  ]

(* The planted races: three racy demos and three clean controls.
   minimax's depth grows with 4 * scale, so the scale stays small. *)
let planted_scale = 0.5

(* Plain twins of the two demos whose result is a pure function of
   their size (see Rader_benchsuite.Demos): fib-racy returns fib n,
   wordcount the number of words it counts. *)
let demo_plain ~scale = function
  | "fib-racy" ->
      let n = 8 + int_of_float (scale *. 4.) in
      let rec fib k = if k < 2 then k else fib (k - 1) + fib (k - 2) in
      Some (fun () -> fib n)
  | "wordcount" ->
      let vocab = [| "the"; "reducer"; "view"; "steal"; "race"; "cilk" |] in
      let n = max 64 (int_of_float (scale *. 4000.)) in
      Some
        (fun () ->
          let counts = Hashtbl.create 8 in
          for i = 0 to n - 1 do
            let w = vocab.((i * 7) mod Array.length vocab) in
            Hashtbl.replace counts w (1 + Option.value (Hashtbl.find_opt counts w) ~default:0)
          done;
          Hashtbl.fold (fun _ c acc -> acc + c) counts 0)
  | _ -> None

(* The daemon serves the demos at scale 1.0: at [planted_scale] a served
   demo is so small that thread wake-ups, not checking, make up most of
   its round trip. *)
let planted_races ~seed =
  List.map
    (fun name ->
      match Demos.resolve ~seed ~scale:planted_scale name with
      | Ok cilk ->
          { name; cilk; plain = demo_plain ~scale:planted_scale name; serve_scale = 1.0 }
      | Error msg -> failwith msg)
    [ "fig1-buggy"; "racy-read"; "fib-racy"; "fig1-fixed"; "wordcount"; "minimax" ]

let build ~seed workload =
  match workload with
  | "fine-grain" -> fine_grain ~seed
  (* The planted races share a mix with wide-sync: both load the §7
     sweep more than the engine, and with two workloads a run can last
     long enough for its medians to ride out the host's slow spells. *)
  | "wide-sync-races" -> wide_sync ~seed @ planted_races ~seed
  | w ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected one of: %s)" w
           (String.concat ", " names))
