type response = {
  header : string;
  body : string list;
  code : int;
  error : string option;
}

(* Whether [header] holds [name] at [i], from its [k]th character on. *)
let rec same header name i k =
  k = String.length name || (header.[i + k] = name.[k] && same header name i (k + 1))

(* The daemon writes headers itself (Handler), so a targeted scan for
   ["name":value] is enough — no JSON parser needed, and the body (which
   may embed arbitrary report text) is never scanned. The first match
   wins; each position is compared in place, allocating nothing. *)
let rec field_from header name i =
  let m = String.length name in
  if i + m + 3 > String.length header then None
  else if
    header.[i] = '"'
    && header.[i + m + 1] = '"'
    && header.[i + m + 2] = ':'
    && same header name (i + 1) 0
  then Some (i + m + 3)
  else field_from header name (i + 1)

let field_start header name = field_from header name 0

let field_int header name =
  match field_start header name with
  | None -> None
  | Some i ->
      let n = String.length header in
      let j = ref i in
      while
        !j < n && (match header.[!j] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr j
      done;
      int_of_string_opt (String.sub header i (!j - i))

let field_string header name =
  match field_start header name with
  | None -> None
  | Some i when i >= String.length header || header.[i] <> '"' -> None
  | Some i ->
      let n = String.length header in
      let b = Buffer.create 32 in
      let rec go j =
        if j >= n then None
        else
          match header.[j] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when j + 1 < n ->
              (match header.[j + 1] with
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | c -> Buffer.add_char b c);
              go (j + 2)
          | c ->
              Buffer.add_char b c;
              go (j + 1)
      in
      go (i + 1)

let request ~socket line =
  let fd =
    if String.contains line '\n' then
      Error "request contains a line feed; quote the value and write it as \\n"
    else
      try Ok (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  match fd with
  | Error _ as e -> e
  | Ok fd -> (
      let fail fmt =
        Printf.ksprintf
          (fun m ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error m)
          fmt
      in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
          fail "cannot connect to %s: %s" socket (Unix.error_message e)
      | () -> (
          let msg = line ^ "\n" in
          let sent =
            match
              let n = String.length msg in
              let sent = ref 0 in
              while !sent < n do
                sent := !sent + Unix.write_substring fd msg !sent (n - !sent)
              done
            with
            | () -> Ok ()
            | exception Unix.Unix_error (e, _, _) ->
                Error ("cannot send request: " ^ Unix.error_message e)
          in
          (* A daemon over its connection cap answers busy and closes at
             once, so the send can fail with the reply already here. *)
          let ic = Unix.in_channel_of_descr fd in
          let read_line () =
            match input_line ic with
            | l -> Ok l
            | exception End_of_file -> Error "daemon closed the connection"
            | exception Sys_error m -> Error m
          in
          match read_line () with
          | Error m ->
              close_in_noerr ic;
              Error (match sent with Error e -> e | Ok () -> m)
          | Ok header -> (
              let n_body = Option.value ~default:0 (field_int header "body") in
              let rec read_body acc k =
                if k = 0 then Ok (List.rev acc)
                else
                  match read_line () with
                  | Ok l -> read_body (l :: acc) (k - 1)
                  | Error m -> Error m
              in
              let body = read_body [] n_body in
              close_in_noerr ic;
              match body with
              | Error m -> Error ("truncated response: " ^ m)
              | Ok body -> (
                  match field_int header "code" with
                  | None -> Error ("malformed header: " ^ header)
                  | Some code ->
                      Ok
                        {
                          header;
                          body;
                          code;
                          error = field_string header "error";
                        }))))
