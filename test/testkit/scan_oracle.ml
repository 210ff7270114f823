(* The pair loops the exact scan replaced, kept without their budget. *)

open Rader_runtime
module Coverage = Rader_core.Coverage

let by_loc (trace : Rader_core.Trace.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a : Engine.access) ->
      let prev = try Hashtbl.find tbl a.Engine.a_loc with Not_found -> [] in
      Hashtbl.replace tbl a.Engine.a_loc (a :: prev))
    trace.Rader_core.Trace.accesses;
  List.sort compare (Hashtbl.fold (fun l accs acc -> (l, List.rev accs) :: acc) tbl [])

let parallel ix (x : Engine.access) (y : Engine.access) =
  x.Engine.a_strand <> y.Engine.a_strand
  && Rader_dag.Sp_tree.lca_kind ix x.Engine.a_strand y.Engine.a_strand = `P

let writes (x : Engine.access) (y : Engine.access) =
  x.Engine.a_is_write || y.Engine.a_is_write

(* first pair (x before y, lexicographic in serial order) satisfying [pick]
   whose strands are parallel *)
let find_pair ix pick accs =
  let rec outer = function
    | [] -> None
    | x :: rest ->
        let rec inner = function
          | [] -> outer rest
          | y :: more -> if pick x y && parallel ix x y then Some (x, y) else inner more
        in
        inner rest
  in
  outer accs

let raw_race ix =
  find_pair ix (fun (x : Engine.access) (y : Engine.access) ->
      (not x.Engine.a_view_aware) && (not y.Engine.a_view_aware) && writes x y)

let escape ix =
  find_pair ix (fun (x : Engine.access) (y : Engine.access) ->
      x.Engine.a_view_aware <> y.Engine.a_view_aware && writes x y)

let scan ix trace =
  let racy = ref [] and clean = ref [] and escapes = ref [] in
  List.iter
    (fun (loc, accs) ->
      let any_parallel = ref false in
      let suppressed = ref false in
      let first_racy = ref None in
      let first_always = ref None in
      (try
         let rec outer = function
           | [] -> ()
           | (x : Engine.access) :: rest ->
               let rec inner = function
                 | [] -> outer rest
                 | (y : Engine.access) :: more ->
                     if parallel ix x y then begin
                       any_parallel := true;
                       if writes x y then
                         if not y.Engine.a_view_aware then begin
                           if !first_racy = None then first_racy := Some (x, y);
                           if not x.Engine.a_view_aware then begin
                             first_always := Some (x, y);
                             raise Exit (* strongest verdict: stop *)
                           end
                         end
                         else suppressed := true
                     end;
                     inner more
               in
               inner rest
         in
         outer accs
       with Exit -> ());
      (match (!first_always, !first_racy) with
      | Some (x, y), _ ->
          racy :=
            { Coverage.ls_loc = loc; ls_first = x; ls_second = y; ls_always = true }
            :: !racy
      | None, Some (x, y) ->
          racy :=
            { Coverage.ls_loc = loc; ls_first = x; ls_second = y; ls_always = false }
            :: !racy
      | None, None ->
          let cert =
            if !suppressed then Coverage.Va_suppressed
            else if !any_parallel then Coverage.Parallel_reads_only
            else Coverage.No_parallel_pair
          in
          clean := (loc, cert) :: !clean);
      match escape ix accs with
      | Some (x, y) -> escapes := (loc, x, y) :: !escapes
      | None -> ())
    (by_loc trace);
  {
    Coverage.scan_racy = List.rev !racy;
    scan_clean = List.rev !clean;
    scan_escapes = List.rev !escapes;
  }

let lint_pairs ix trace =
  List.concat_map
    (fun (loc, accs) ->
      (match raw_race ix accs with
      | Some ((x : Engine.access), (y : Engine.access)) ->
          [ ("R002", loc, [ x.Engine.a_strand; y.Engine.a_strand ]) ]
      | None -> [])
      @
      match escape ix accs with
      | Some (x, y) ->
          let va, vo = if x.Engine.a_view_aware then (x, y) else (y, x) in
          [ ("R005", loc, [ va.Engine.a_strand; vo.Engine.a_strand ]) ]
      | None -> [])
    (by_loc trace)
  |> List.sort compare
