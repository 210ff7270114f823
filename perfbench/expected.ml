(* The hand-written expected verdicts (perfbench/expected.txt).

   One line per job: program, mode, configuration ("-" when the mode has
   none), exit class and the comma-separated racy-location labels ("-"
   when there are none; labels may contain spaces, never commas). Blank
   lines and lines starting with '#' are ignored.

   A job whose steal schedule is drawn from the seed (the
   check_reductions triple, the online structural steals) may list
   several exit classes ("0|1") and mark a label that only some
   schedules elicit with '?'. Every unmarked label must be found, no
   label outside the line may be, and exit 1 must come with at least
   one label. *)

type t = (string * string * string, int list * string list * string list) Hashtbl.t

let split_words line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse_labels = function
  | "-" -> ([], [])
  | f ->
      let ls = List.map String.trim (String.split_on_char ',' f) in
      let optional, required =
        List.partition (fun l -> String.length l > 0 && l.[0] = '?') ls
      in
      ( List.sort_uniq compare required,
        List.sort_uniq compare
          (List.map (fun l -> String.sub l 1 (String.length l - 1)) optional) )

let load path : t =
  let tbl = Hashtbl.create 64 in
  let ic = open_in path in
  let rec loop lineno =
    match input_line ic with
    | exception End_of_file -> close_in ic
    | line ->
        let line = String.trim line in
        (if line <> "" && line.[0] <> '#' then
           let fail what =
             failwith (Printf.sprintf "%s:%d: %s: %S" path lineno what line)
           in
           match split_words line with
           | prog :: mode :: config :: codes :: (_ :: _ as rest) ->
               let key = (prog, mode, config) in
               if Hashtbl.mem tbl key then fail "duplicate job";
               let codes =
                 List.map
                   (fun c -> try int_of_string c with Failure _ -> fail "bad exit class")
                   (String.split_on_char '|' codes)
               in
               let required, optional = parse_labels (String.concat " " rest) in
               Hashtbl.replace tbl key (codes, required, optional)
           | _ -> fail "expected program, mode, config, exit class and labels");
        loop (lineno + 1)
  in
  loop 1;
  tbl

(* [check t ~prog ~mode ~config ~code ~labels] is the list of ways the
   observed verdict differs from the expected one ([[]] = it matches). *)
let check (t : t) ~prog ~mode ~config ~code ~labels =
  match Hashtbl.find_opt t (prog, mode, config) with
  | None -> [ "no expected verdict" ]
  | Some (codes, required, optional) ->
      let missing = List.filter (fun l -> not (List.mem l labels)) required in
      let extra =
        List.filter (fun l -> not (List.mem l required || List.mem l optional)) labels
      in
      let show ls = String.concat "," ls in
      (if List.mem code codes then []
       else [ Printf.sprintf "exit %d, expected %s" code
                (String.concat "|" (List.map string_of_int codes)) ])
      @ (if missing = [] then [] else [ "missing labels [" ^ show missing ^ "]" ])
      @ (if extra = [] then [] else [ "unexpected labels [" ^ show extra ^ "]" ])
      @ if code = 1 && labels = [] then [ "exit 1 without a label" ] else []
