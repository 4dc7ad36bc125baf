type reduction = Reduction_none | Reduction_sleep | Reduction_source

let reduction_to_string = function
  | Reduction_none -> "none"
  | Reduction_sleep -> "sleep"
  | Reduction_source -> "source"

let reduction_of_string = function
  | "none" -> Some Reduction_none
  | "sleep" -> Some Reduction_sleep
  | "source" -> Some Reduction_source
  | _ -> None

type engine = {
  reduction : reduction option;
  exact_keys : bool option;
  jobs : int;
  bitstate_bits : int option;
  timeout : float option;
  max_configs : int option;
  max_runs : int option;
}

let default_engine =
  {
    reduction = None;
    exact_keys = None;
    jobs = 1;
    bitstate_bits = None;
    timeout = None;
    max_configs = None;
    max_runs = None;
  }

type check = {
  cmd : string;
  params : (string * string) list;
  restrict : Gem_logic.Formula.t option;
  engine : engine;
}

type t = Ping | Stats | Check of check

let restriction_name = "client-restriction"

(* --- tokenizer ------------------------------------------------------ *)

(* Splits a request line into bare words and [key=value] pairs, where a
   value may be double-quoted to carry spaces. Escapes inside quotes are
   backslash-quote, backslash-backslash, and backslash-n and backslash-r
   for a line feed and a carriage return, which the line-framed wire
   cannot carry raw; anything else after a backslash is an error rather
   than silently passed through, so a typo'd escape fails loudly. *)

type token = Word of string | Pair of string * string

let is_space c = c = ' ' || c = '\t'

let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let result = ref None in
  while !result = None && !i < n do
    if is_space line.[!i] then incr i
    else begin
      (* A token runs to the next unquoted space. *)
      let b = Buffer.create 16 in
      let key = ref None in
      let stop = ref false in
      while !result = None && (not !stop) && !i < n do
        match line.[!i] with
        | c when is_space c -> stop := true
        | '=' when !key = None ->
            key := Some (Buffer.contents b);
            Buffer.clear b;
            incr i
        | '"' ->
            if !key = None || Buffer.length b > 0 then
              result := Some (err "misplaced quote at column %d" (!i + 1))
            else begin
              incr i;
              let closed = ref false in
              while !result = None && (not !closed) && !i < n do
                match line.[!i] with
                | '"' ->
                    closed := true;
                    incr i
                | '\\' ->
                    if !i + 1 >= n then
                      result := Some (err "dangling backslash in quoted value")
                    else begin
                      (match line.[!i + 1] with
                      | ('"' | '\\') as c -> Buffer.add_char b c
                      | 'n' -> Buffer.add_char b '\n'
                      | 'r' -> Buffer.add_char b '\r'
                      | c ->
                          result :=
                            Some (err "unknown escape \\%c in quoted value" c));
                      i := !i + 2
                    end
                | c ->
                    Buffer.add_char b c;
                    incr i
              done;
              if !result = None && not !closed then
                result := Some (err "unterminated quoted value")
            end
        | c ->
            Buffer.add_char b c;
            incr i
      done;
      if !result = None then
        let tok =
          match !key with
          | None -> Word (Buffer.contents b)
          | Some k -> Pair (k, Buffer.contents b)
        in
        toks := tok :: !toks
    end
  done;
  match !result with Some e -> e | None -> Ok (List.rev !toks)

(* --- engine / workload key parsing ---------------------------------- *)

let pos_int ~key v =
  match int_of_string_opt v with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s expects a positive integer, got %S" key v)

let parse_engine_key eng key v =
  let open Result in
  match key with
  | "reduction" -> (
      match reduction_of_string v with
      | Some r -> Ok (Some { eng with reduction = Some r })
      | None ->
          Error (Printf.sprintf "reduction expects none|sleep|source, got %S" v))
  | "keys" -> (
      match v with
      | "fp" -> Ok (Some { eng with exact_keys = Some false })
      | "exact" -> Ok (Some { eng with exact_keys = Some true })
      | _ -> Error (Printf.sprintf "keys expects fp|exact, got %S" v))
  | "jobs" -> map (fun n -> Some { eng with jobs = n }) (pos_int ~key v)
  | "bitstate" -> (
      let module B = Gem_check.Bitstate in
      match (v, int_of_string_opt v) with
      | "off", _ -> Ok (Some { eng with bitstate_bits = None })
      | _, Some n when n >= B.min_bits && n <= B.max_bits ->
          Ok (Some { eng with bitstate_bits = Some n })
      | _ ->
          Error
            (Printf.sprintf "bitstate expects off or bits in %d..%d, got %S"
               B.min_bits B.max_bits v))
  | "timeout" -> (
      match float_of_string_opt v with
      | Some f when f > 0. && Float.is_finite f ->
          Ok (Some { eng with timeout = Some f })
      | _ -> Error (Printf.sprintf "timeout expects positive seconds, got %S" v)
      )
  | "max-configs" ->
      map (fun n -> Some { eng with max_configs = Some n }) (pos_int ~key v)
  | "max-runs" ->
      map (fun n -> Some { eng with max_runs = Some n }) (pos_int ~key v)
  | _ -> Ok None

let ident_ok s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
       s

let parse_check toks =
  let rec go cmd params restrict eng = function
    | [] -> (
        match cmd with
        | None -> Error "check expects a command name"
        | Some cmd ->
            Ok
              (Check
                 {
                   cmd;
                   params = List.sort (fun (a, _) (b, _) -> compare a b) params;
                   restrict;
                   engine = eng;
                 }))
    | Word w :: rest -> (
        match cmd with
        | None when ident_ok w -> go (Some w) params restrict eng rest
        | None -> Error (Printf.sprintf "invalid command name %S" w)
        | Some _ ->
            Error
              (Printf.sprintf "unexpected bare word %S (expected key=value)" w))
    | Pair (k, v) :: rest -> (
        if cmd = None then
          Error (Printf.sprintf "check expects a command name before %s=..." k)
        else if not (ident_ok k) then
          Error (Printf.sprintf "invalid key %S" k)
        else if
          List.mem_assoc k params
          || (k = "restrict" && restrict <> None)
        then Error (Printf.sprintf "duplicate key %s" k)
        else if k = "restrict" then
          match Parser.parse_formula v with
          | Ok f -> go cmd params (Some f) eng rest
          | Error e -> Error (Printf.sprintf "restrict: %s" e)
        else
          match parse_engine_key eng k v with
          | Error e -> Error e
          | Ok (Some eng) -> go cmd params restrict eng rest
          | Ok None -> go cmd ((k, v) :: params) restrict eng rest)
  in
  go None [] None default_engine toks

let parse line =
  match tokenize line with
  | Error e -> Error e
  | Ok [] -> Error "empty request"
  | Ok (Word "ping" :: rest) ->
      if rest = [] then Ok Ping else Error "ping takes no arguments"
  | Ok (Word "stats" :: rest) ->
      if rest = [] then Ok Stats else Error "stats takes no arguments"
  | Ok (Word "check" :: rest) -> parse_check rest
  | Ok (Word w :: _) ->
      Error (Printf.sprintf "unknown verb %S (expected ping, stats or check)" w)
  | Ok (Pair (k, _) :: _) ->
      Error (Printf.sprintf "request must start with a verb, not %s=..." k)

(* --- canonical rendering -------------------------------------------- *)

let needs_quoting v =
  v = ""
  || String.exists
       (fun c -> is_space c || c = '"' || c = '\\' || c = '=' || c = '\n' || c = '\r')
       v

let render_value v =
  if not (needs_quoting v) then v
  else begin
    let b = Buffer.create (String.length v + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | ('"' | '\\') as c ->
            Buffer.add_char b '\\';
            Buffer.add_char b c
        | c -> Buffer.add_char b c)
      v;
    Buffer.add_char b '"';
    Buffer.contents b
  end

(* The shortest [%g] rendering that reads back as the same float, so a
   timeout survives [parse (to_line r)]. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 1

let engine_pairs eng =
  let d = default_engine in
  let p = ref [] in
  let add k v = p := (k, v) :: !p in
  (match eng.max_runs with Some n -> add "max-runs" (string_of_int n) | None -> ());
  (match eng.max_configs with
  | Some n -> add "max-configs" (string_of_int n)
  | None -> ());
  (match eng.timeout with
  | Some f -> add "timeout" (float_repr f)
  | None -> ());
  (match eng.bitstate_bits with
  | Some n -> add "bitstate" (string_of_int n)
  | None -> ());
  if eng.jobs <> d.jobs then add "jobs" (string_of_int eng.jobs);
  (match eng.exact_keys with
  | Some true -> add "keys" "exact"
  | Some false -> add "keys" "fp"
  | None -> ());
  (match eng.reduction with
  | Some r -> add "reduction" (reduction_to_string r)
  | None -> ());
  !p

let to_line = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Check c ->
      let params = List.sort (fun (a, _) (b, _) -> compare a b) c.params in
      let restrict =
        match c.restrict with
        | Some f -> [ ("restrict", Gem_logic.Formula.to_string f) ]
        | None -> []
      in
      let pairs = params @ restrict @ engine_pairs c.engine in
      String.concat " "
        ("check" :: c.cmd
        :: List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (render_value v)) pairs)
