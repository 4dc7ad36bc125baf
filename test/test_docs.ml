(* README.md and the code must name the same telemetry counters, budget
   stop reasons, fault points and environment variables, in both
   directions:

   - every counter key that [Telemetry.stats_json] prints, every
     [Budget.reason_keyword] and every [Faults] point name appears in
     README.md as a code span;
   - every code span in README.md shaped like one of those names
     (snake_case or kebab-case) is a name the code still has, or one of
     the few other documented identifiers listed below;
   - the [GEM_*] names in README.md's code spans are exactly the
     ["GEM_..."] string literals of lib/ and bin/, the variables the
     code reads. *)

module T = Gem_obs.Telemetry
module Budget = Gem_check.Budget
module Faults = Gem_check.Faults

(* Code spans of README.md, fenced blocks excluded. *)
let code_spans text =
  let spans = ref [] and fenced = ref false in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"```" (String.trim line) then fenced := not !fenced
      else if not !fenced then
        match String.split_on_char '`' line with
        | _ :: rest -> List.iteri (fun i s -> if i mod 2 = 0 then spans := s :: !spans) rest
        | [] -> ())
    (String.split_on_char '\n' text);
  !spans

(* Keys of the stats snapshot whose value is a number, before the
   per-phase timings: the counters, plus [schema_version]. *)
let stats_keys () =
  let s = T.stats_json () in
  let rec scan i acc =
    match String.index_from_opt s i '"' with
    | None -> acc
    | Some a ->
        let b = String.index_from s (a + 1) '"' in
        let key = String.sub s (a + 1) (b - a - 1) in
        if key = "timings" then acc
        else if b + 2 < String.length s && s.[b + 1] = ':' && s.[b + 2] >= '0' && s.[b + 2] <= '9'
        then scan (b + 1) (key :: acc)
        else scan (b + 1) acc
  in
  List.rev (scan 0 [])

(* Every reason, by construction: adding a constructor breaks this match. *)
let reason_keywords =
  let all =
    Budget.
      [ Deadline_exceeded; Config_budget; Run_cap 0; Memory_watermark; Interrupted;
        Bitstate_collision_risk ]
  in
  List.iter
    (function
      | Budget.Deadline_exceeded | Config_budget | Run_cap _ | Memory_watermark
      | Interrupted | Bitstate_collision_risk -> ())
    all;
  List.map Budget.reason_keyword all

let point_names = List.map Faults.point_name Faults.all_points

(* Identifiers README.md documents that are not counters, reasons or
   fault points: fields of the serve header and BENCH reports, and a CI
   job name. *)
let other_names = [ "elapsed_ms"; "wall_s"; "configs_per_sec"; "bench-gate" ]

let name_shaped s =
  let word_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') in
  let sep = if String.contains s '_' then '_' else '-' in
  String.length s > 2
  && List.for_all
       (fun part -> part <> "" && String.for_all word_char part)
       (String.split_on_char sep s)
  && String.contains s sep

(* The problems, one line each; empty when README.md and the code agree. *)
let problems readme =
  let spans = code_spans readme in
  let code = List.sort_uniq compare (stats_keys () @ reason_keywords @ point_names) in
  List.filter_map
    (fun n ->
      if List.mem n spans then None
      else Some (Printf.sprintf "README.md never names %S" n))
    code
  @ List.filter_map
      (fun s ->
        if name_shaped s && not (List.mem s code || List.mem s other_names) then
          Some (Printf.sprintf "README.md names %S, which the code does not have" s)
        else None)
      (List.sort_uniq compare spans)

let readme () = In_channel.with_open_bin "../README.md" In_channel.input_all

(* The [GEM_*] names in [text]: "GEM_" and the upper-case letters,
   digits and underscores after it. [quoted] keeps only the names
   written as a whole string literal. *)
let gem_names ?(quoted = false) text =
  let name_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  let n = String.length text in
  let rec scan i acc =
    if i + 4 > n then acc
    else if String.sub text i 4 <> "GEM_" then scan (i + 1) acc
    else begin
      let j = ref (i + 4) in
      while !j < n && name_char text.[!j] do incr j done;
      let literal = i > 0 && text.[i - 1] = '"' && !j < n && text.[!j] = '"' in
      let keep = !j > i + 4 && (literal || not quoted) in
      scan !j (if keep then String.sub text i (!j - i) :: acc else acc)
    end
  in
  scan 0 []

let rec ml_files dir =
  List.concat_map
    (fun f ->
      let path = Filename.concat dir f in
      if Sys.is_directory path then ml_files path
      else if Filename.check_suffix f ".ml" then [ path ]
      else [])
    (Array.to_list (Sys.readdir dir))

let env_vars_read () =
  List.sort_uniq compare
    (List.concat_map
       (fun path ->
         gem_names ~quoted:true (In_channel.with_open_bin path In_channel.input_all))
       (ml_files "../lib" @ ml_files "../bin"))

let env_problems readme =
  let documented =
    List.sort_uniq compare
      (List.concat_map gem_names (code_spans readme))
  in
  let read = env_vars_read () in
  List.filter_map
    (fun n ->
      if List.mem n documented then None
      else Some (Printf.sprintf "README.md never names %s" n))
    read
  @ List.filter_map
      (fun n ->
        if List.mem n read then None
        else Some (Printf.sprintf "README.md names %s, which the code does not read" n))
      documented

let test_env_vars_match () =
  Alcotest.(check bool) "the scan reads the sources" true
    (List.mem "GEM_JOBS" (env_vars_read ()));
  Alcotest.(check (list string)) "README.md vs the variables read" []
    (env_problems (readme ()))

let test_retired_variable_caught () =
  Alcotest.(check (list string))
    "a retired variable is reported"
    [ "README.md names GEM_NO_POR, which the code does not read" ]
    (env_problems (readme () ^ "\nSet `GEM_NO_POR=1` to disable reduction.\n"))

let test_readme_matches_code () =
  Alcotest.(check (list string)) "README.md vs code" [] (problems (readme ()))

let test_deleted_counter_caught () =
  Alcotest.(check (list string))
    "a deleted counter is reported"
    [ {|README.md names "batches_stolen", which the code does not have|} ]
    (problems (readme () ^ "\nSteals are counted in `batches_stolen`.\n"))

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) and n = String.length sub in
  let rec go i =
    if i < String.length s then
      if i + n <= String.length s && String.sub s i n = sub then begin
        Buffer.add_string b by;
        go (i + n)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let test_missing_reason_caught () =
  let without = replace_all ~sub:"`run-cap`" ~by:"the run cap" (readme ()) in
  Alcotest.(check (list string))
    "an undocumented reason is reported"
    [ {|README.md never names "run-cap"|} ]
    (problems without)

let () =
  Alcotest.run "docs"
    [
      ( "readme",
        [
          Alcotest.test_case "counters, reasons and fault points match" `Quick
            test_readme_matches_code;
          Alcotest.test_case "deleted counter caught" `Quick test_deleted_counter_caught;
          Alcotest.test_case "undocumented reason caught" `Quick test_missing_reason_caught;
          Alcotest.test_case "environment variables match" `Quick test_env_vars_match;
          Alcotest.test_case "retired variable caught" `Quick
            test_retired_variable_caught;
        ] );
    ]
