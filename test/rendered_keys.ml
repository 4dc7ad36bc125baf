(* The daemon's cache keys as they were when a restriction entered its
   key through its [Format] rendering: the problem spec's name and each
   explicit restriction rendered as "name=formula", the client
   restriction as "+client-restriction=formula", joined by line feeds
   and hashed as one string. test_serve holds {!Gem_daemon.Runner}'s
   structural keys to this copy: the two must put any set of requests
   into the same classes. The program fingerprint is a copy of the
   [program_fp] the daemon then had: the initial configuration's
   fingerprint of the built program, or for db and life a hash of the
   parameters.

   The rendering is the recursive [Format] printer the formula syntax
   had then; test_props holds {!Gem_logic.Formula.pp}, which now shares
   one walk with the fingerprint, to it. *)

module R = Gem_syntax.Request
module Runner = Gem_daemon.Runner
module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module Fingerprint = Gem_order.Fingerprint
module Formula = Gem_logic.Formula
module Spec = Gem_spec.Spec
module Readers_writers = Gem_problems.Readers_writers
module Buffer_problem = Gem_problems.Buffer
module Rw_distributed = Gem_problems.Rw_distributed
module Life = Gem_problems.Life

let pp_cmp ppf = function
  | Formula.Eq -> Format.fprintf ppf "="
  | Ne -> Format.fprintf ppf "!="
  | Lt -> Format.fprintf ppf "<"
  | Le -> Format.fprintf ppf "<="
  | Gt -> Format.fprintf ppf ">"
  | Ge -> Format.fprintf ppf ">="

let rec pp_texp ppf = function
  | Formula.Const v -> Gem_model.Value.pp ppf v
  | Param (x, p) -> Format.fprintf ppf "%s.%s" x p
  | Index x -> Format.fprintf ppf "index(%s)" x
  | Plus (t, n) -> Format.fprintf ppf "%a + %d" pp_texp t n

let rec pp_domain ppf = function
  | Formula.Any -> Format.fprintf ppf "*"
  | Cls c -> Format.fprintf ppf "%s" c
  | At_elem e -> Format.fprintf ppf "%s.*" e
  | Cls_at (e, c) -> Format.fprintf ppf "%s.%s" e c
  | Union ds ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "|") pp_domain)
        ds

let pp_atom ppf = function
  | Formula.Occurred x -> Format.fprintf ppf "occurred(%s)" x
  | Enables (x, y) -> Format.fprintf ppf "%s |> %s" x y
  | Elem_lt (x, y) -> Format.fprintf ppf "%s =>el %s" x y
  | Temp_lt (x, y) -> Format.fprintf ppf "%s => %s" x y
  | Same_event (x, y) -> Format.fprintf ppf "%s = %s" x y
  | Same_element (x, y) -> Format.fprintf ppf "elem(%s) = elem(%s)" x y
  | In_class (x, d) -> Format.fprintf ppf "%s : %a" x pp_domain d
  | Cmp (c, t1, t2) -> Format.fprintf ppf "%a %a %a" pp_texp t1 pp_cmp c pp_texp t2
  | At_class (x, d) -> Format.fprintf ppf "%s at %a" x pp_domain d
  | New x -> Format.fprintf ppf "new(%s)" x
  | Potential x -> Format.fprintf ppf "potential(%s)" x
  | Same_thread (pi, x, y) -> Format.fprintf ppf "%s ~%s~ %s" x pi y
  | Distinct_thread (pi, x, y) -> Format.fprintf ppf "%s !~%s~ %s" x pi y
  | In_thread (pi, x) -> Format.fprintf ppf "%s in %s" x pi
  | Sem (name, xs, _) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_string)
        xs

let rec pp ppf = function
  | Formula.True -> Format.fprintf ppf "true"
  | False -> Format.fprintf ppf "false"
  | Atom a -> pp_atom ppf a
  | Not f -> Format.fprintf ppf "~(%a)" pp f
  | And fs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ /\\ ") pp)
        fs
  | Or fs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ \\/ ") pp)
        fs
  | Implies (a, b) -> Format.fprintf ppf "(%a ->@ %a)" pp a pp b
  | Iff (a, b) -> Format.fprintf ppf "(%a <->@ %a)" pp a pp b
  | Forall (x, d, f) -> Format.fprintf ppf "@[(ALL %s:%a)@ %a@]" x pp_domain d pp f
  | Exists (x, d, f) -> Format.fprintf ppf "@[(EX %s:%a)@ %a@]" x pp_domain d pp f
  | Exists_unique (x, d, f) ->
      Format.fprintf ppf "@[(EX! %s:%a)@ %a@]" x pp_domain d pp f
  | At_most_one (x, d, f) ->
      Format.fprintf ppf "@[(EX<=1 %s:%a)@ %a@]" x pp_domain d pp f
  | Henceforth f -> Format.fprintf ppf "[](%a)" pp f
  | Eventually f -> Format.fprintf ppf "<>(%a)" pp f

let to_string f = Format.asprintf "%a" pp f

let buffer_lang_name = function
  | `Monitor -> "monitor"
  | `Csp -> "csp"
  | `Ada -> "ada"

let rwd_lang_name = function `Csp -> "csp" | `Ada -> "ada"

let params_string = function
  | Runner.Rw { readers; writers; _ } ->
      Printf.sprintf "readers=%d writers=%d" readers writers
  | Runner.Buffer { lang; capacity; producers; consumers; items } ->
      Printf.sprintf "lang=%s capacity=%d producers=%d consumers=%d items=%d"
        (buffer_lang_name lang) capacity producers consumers items
  | Runner.Rwd { lang; readers; writers; broken } ->
      Printf.sprintf "lang=%s readers=%d writers=%d broken=%b"
        (rwd_lang_name lang) readers writers broken
  | Runner.Db { sites } -> Printf.sprintf "sites=%d" sites
  | Runner.Life { width; height; generations } ->
      Printf.sprintf "width=%d height=%d generations=%d" width height
        generations

let problem_spec load =
  match load with
  | Runner.Rw { version; readers; writers; _ } ->
      Some
        (Readers_writers.spec version
           ~users:(Readers_writers.user_names ~readers ~writers))
  | Runner.Buffer { capacity; _ } -> Some (Buffer_problem.spec ~capacity)
  | Runner.Rwd { readers; writers; _ } ->
      let rnames, wnames = Rw_distributed.user_names ~readers ~writers in
      Some (Rw_distributed.spec ~readers:rnames ~writers:wnames)
  | Runner.Db _ -> None
  | Runner.Life { width; height; _ } -> Some (Life.spec ~width ~height)

let restriction_fp load restrict =
  let base =
    match problem_spec load with
    | Some s ->
        s.Spec.spec_name
        :: List.map
             (fun (n, f) -> n ^ "=" ^ to_string f)
             s.Spec.restrictions
    | None -> [ "db-update:convergence+deadlock-freedom" ]
  in
  let client =
    match restrict with
    | Some f -> [ "+" ^ R.restriction_name ^ "=" ^ to_string f ]
    | None -> []
  in
  Fingerprint.of_string (String.concat "\n" (base @ client))

let key_params_string load =
  match load with
  | Runner.Rw { monitor; readers; writers; _ } ->
      Printf.sprintf "rw monitor=%s readers=%d writers=%d" monitor readers
        writers
  | Runner.Buffer _ | Runner.Rwd _ | Runner.Db _ | Runner.Life _ ->
      Runner.command_name load ^ " " ^ params_string load

let engine_reduction (e : R.engine) =
  match e.R.reduction with
  | Some R.Reduction_none -> Explore.No_reduction
  | Some R.Reduction_sleep -> Explore.Sleep_sets
  | Some R.Reduction_source -> Explore.Source_sets
  | None -> Explore.reduction_default ()

let resolve_exact = function
  | Some b -> b
  | None -> Explore.exact_keys_default ()

let bits_string = function Some b -> string_of_int b | None -> "off"

let engine_string (e : R.engine) =
  let opt_int = function Some n -> string_of_int n | None -> "none" in
  Printf.sprintf "exact=%b jobs=%d bitstate=%s maxc=%s maxr=%s reduction=%s"
    (resolve_exact e.R.exact_keys)
    e.R.jobs (bits_string e.R.bitstate_bits) (opt_int e.R.max_configs)
    (opt_int e.R.max_runs)
    (Explore.reduction_name (engine_reduction e))

let program_fp load =
  let fp l = Explore.fp_key l l.Explore.init in
  match load with
  | Runner.Rw { monitor; readers; writers; _ } ->
      let monitor = Result.get_ok (Runner.monitor_of_name monitor) in
      fp (Monitor.lang (Readers_writers.program ~monitor ~readers ~writers))
  | Runner.Buffer { lang = `Monitor; capacity; producers; consumers; items } ->
      fp
        (Monitor.lang
           (Buffer_problem.monitor_solution ~capacity ~producers ~consumers
              ~items_each:items))
  | Runner.Buffer { lang = `Csp; capacity; producers; consumers; items } ->
      fp
        (Csp.lang
           (Buffer_problem.csp_solution ~capacity ~producers ~consumers
              ~items_each:items))
  | Runner.Buffer { lang = `Ada; capacity; producers; consumers; items } ->
      fp
        (Ada.lang
           (Buffer_problem.ada_solution ~capacity ~producers ~consumers
              ~items_each:items))
  | Runner.Rwd { lang = `Csp; readers; writers; broken } ->
      fp
        (Csp.lang
           (if broken then Rw_distributed.csp_program_no_priority ~readers ~writers
            else Rw_distributed.csp_program ~readers ~writers))
  | Runner.Rwd { lang = `Ada; readers; writers; broken } ->
      fp
        (Ada.lang
           (if broken then Rw_distributed.ada_program_no_priority ~readers ~writers
            else Rw_distributed.ada_program ~readers ~writers))
  | Runner.Db { sites } ->
      Fingerprint.of_string (Printf.sprintf "db-update sites=%d" sites)
  | Runner.Life { width; height; generations } ->
      Fingerprint.of_string
        (Printf.sprintf "life %dx%d g=%d alive=1:0,1:1,1:2" width height generations)

let explore_key load engine =
  Fingerprint.to_hex
    (Fingerprint.combine (program_fp load)
       (Fingerprint.combine
          (Fingerprint.of_string (key_params_string load))
          (Fingerprint.of_string (engine_string engine))))

let verdict_key load ~restrict engine =
  Fingerprint.to_hex
    (Fingerprint.combine
       (Fingerprint.combine (program_fp load) (restriction_fp load restrict))
       (Fingerprint.combine
          (Fingerprint.of_string (key_params_string load))
          (Fingerprint.of_string (engine_string engine))))
