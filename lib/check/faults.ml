(* Deterministic fault injection. A single global arming keeps the call
   sites trivial (`if Faults.fire Spill_io then ...`): the harness is a
   test/CI instrument, not a per-run configuration, and arming happens
   once at process start before any domain is spawned. The draw counter
   is atomic so concurrent domains consume distinct draws; determinism
   is per-seed across the whole process, not per call site. *)

type point = Alloc | Spill_io | Checkpoint_io

exception Injected of point

let point_name = function
  | Alloc -> "alloc"
  | Spill_io -> "spill-io"
  | Checkpoint_io -> "checkpoint-io"

let all_points = [ Alloc; Spill_io; Checkpoint_io ]

type armed = { seed : int64; period : int; points : point list }

let state : armed option ref = ref None
let draws = Atomic.make 0

(* splitmix64: full 64-bit avalanche, so consecutive draw indices under
   one seed produce independent-looking residues mod the period. *)
let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let default_period = 101

let parse_points s =
  let name_to_point = function
    | "alloc" -> Some Alloc
    | "spill-io" | "spill" -> Some Spill_io
    | "checkpoint-io" | "checkpoint" -> Some Checkpoint_io
    | _ -> None
  in
  let names = String.split_on_char ',' s in
  let pts = List.filter_map name_to_point names in
  if List.length pts = List.length names && pts <> [] then Some pts else None

(* "SEED[:PERIOD[:POINTS]]" — e.g. "42", "42:17", "42:17:spill,checkpoint".
   Malformed specs are a caller error, reported as [Error] so the CLI can
   exit 3 rather than silently running unfaulted. *)
let parse spec =
  match String.split_on_char ':' (String.trim spec) with
  | [] | [ "" ] -> Error "empty GEM_FAULT spec"
  | seed :: rest -> (
      match int_of_string_opt seed with
      | None -> Error (Printf.sprintf "GEM_FAULT: bad seed %S" seed)
      | Some seed -> (
          let seed = Int64.of_int seed in
          match rest with
          | [] -> Ok { seed; period = default_period; points = all_points }
          | [ period ] -> (
              match int_of_string_opt period with
              | Some p when p > 0 -> Ok { seed; period = p; points = all_points }
              | _ -> Error (Printf.sprintf "GEM_FAULT: bad period %S" period))
          | [ period; points ] -> (
              match (int_of_string_opt period, parse_points points) with
              | Some p, Some pts when p > 0 ->
                  Ok { seed; period = p; points = pts }
              | None, _ | Some _, _ ->
                  Error
                    (Printf.sprintf "GEM_FAULT: bad period/points %S:%S" period
                       points))
          | _ -> Error "GEM_FAULT: too many fields"))

let arm spec =
  match parse spec with
  | Ok a ->
      Atomic.set draws 0;
      state := Some a;
      Ok ()
  | Error _ as e -> e

let arm_from_env () =
  match Sys.getenv_opt "GEM_FAULT" with
  | None | Some "" -> Ok false
  | Some spec -> Result.map (fun () -> true) (arm spec)

let disarm () =
  state := None;
  Atomic.set draws 0

let armed () = !state <> None

let fire point =
  match !state with
  | None -> false
  | Some a ->
      if List.memq point a.points then begin
        let n = Atomic.fetch_and_add draws 1 in
        let r =
          Int64.rem (splitmix64 (Int64.add a.seed (Int64.of_int n)))
            (Int64.of_int a.period)
        in
        if r = 0L then begin
          Gem_obs.Telemetry.hit Gem_obs.Telemetry.Faults_injected;
          true
        end
        else false
      end
      else false

let survived () = Gem_obs.Telemetry.hit Gem_obs.Telemetry.Faults_survived
