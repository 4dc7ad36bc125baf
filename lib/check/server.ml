(* Transport only: newline-framed requests over a Unix-domain socket,
   one thread per connection. Checking semantics (parsing, caching,
   verdicts) live behind the [handler]; this module owns the sockets,
   the framing, the drain-on-stop choreography and nothing else. *)

type handler = string -> string list

type conn = { c_fd : Unix.file_descr; mutable c_thread : Thread.t option }

type t = {
  s_path : string;
  s_listen : Unix.file_descr;
  s_stop : bool Atomic.t;
  s_lock : Mutex.t;
  mutable s_conns : conn list;
      (* Guarded by [s_lock]: the open connections. A connection leaves
         the list as its descriptor is closed, which the OS may then
         reuse, so the drain never touches a closed one. *)
}

(* The most connections served at once, one thread each: the listen
   backlog. A connection over it is answered and closed by the accept
   loop, so a flood of idle connections cannot make the daemon start
   threads without limit. *)
let max_connections = 64

let busy = {|{"serve":1,"error":"busy","code":3}|}

let create ~socket () =
  (* A stale socket file from a crashed daemon would make bind fail with
     EADDRINUSE even though nobody is listening; removing a regular file
     at the path would destroy user data, so only socket files are swept. *)
  (match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink socket with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.set_close_on_exec fd with Invalid_argument _ -> ());
  (try Unix.bind fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd max_connections;
  {
    s_path = socket;
    s_listen = fd;
    s_stop = Atomic.make false;
    s_lock = Mutex.create ();
    s_conns = [];
  }

let socket_path t = t.s_path
let live_connections t = Mutex.protect t.s_lock (fun () -> List.length t.s_conns)
let request_stop t = Atomic.set t.s_stop true
let stopping t = Atomic.get t.s_stop

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Writes may be split by the kernel; loop until done. EPIPE/ECONNRESET
   mean the client went away mid-response — the caller closes the
   connection, the daemon keeps serving everyone else. *)
let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

(* The longest request line read, newline excluded. A longer one is
   answered with a code-3 error and its connection closed, so a client
   that never sends a newline cannot make the daemon allocate without
   limit. *)
let max_line_bytes = 1 lsl 20

let line_too_long = {|{"serve":1,"error":"request line too long","code":3}|}

(* Reads newline-framed lines from the connection's channel through a
   small chunk; [pos, len) of [chunk] is read but not yet consumed. The
   channel does the buffering (and its out-of-heap buffer keeps the
   major GC paced to the connection rate, which a large chunk on the
   OCaml heap would not), so the chunk stays small. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let fill r =
  r.pos <- 0;
  r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)

(* [input_line] (an unterminated last line included), or [None] once the
   line passes [max_line_bytes]. Raises [End_of_file] at end of input. *)
let read_line r =
  Buffer.reset r.line;
  let rec go () =
    if r.pos = r.len then fill r;
    if r.len = 0 then
      if Buffer.length r.line > 0 then Some (Buffer.contents r.line)
      else raise End_of_file
    else
      let stop =
        match Bytes.index_from_opt r.chunk r.pos '\n' with
        | Some i when i < r.len -> i
        | _ -> r.len
      in
      if Buffer.length r.line + (stop - r.pos) > max_line_bytes then None
      else begin
        Buffer.add_subbytes r.line r.chunk r.pos (stop - r.pos);
        if stop < r.len then begin
          r.pos <- stop + 1;
          Some (Buffer.contents r.line)
        end
        else begin
          r.pos <- r.len;
          go ()
        end
      end
  in
  go ()

let serve_conn t ~handler conn =
  let ic = Unix.in_channel_of_descr conn.c_fd in
  let reader =
    { ic; chunk = Bytes.create 512; pos = 0; len = 0; line = Buffer.create 256 }
  in
  let close () =
    Mutex.protect t.s_lock (fun () ->
        (* close_in closes the underlying descriptor too. *)
        close_in_noerr ic;
        t.s_conns <- List.filter (fun c -> c != conn) t.s_conns)
  in
  (try
     let continue = ref true in
     while !continue do
       match read_line reader with
       | exception End_of_file -> continue := false
       | exception Sys_error _ -> continue := false
       | None ->
           (try write_all conn.c_fd (line_too_long ^ "\n")
            with Unix.Unix_error _ | Sys_error _ -> ());
           continue := false
       | Some line ->
           let replies =
             match handler line with
             | replies -> replies
             | exception e ->
                 [
                   Printf.sprintf {|{"serve":1,"error":"internal: %s","code":3}|}
                     (json_escape (Printexc.to_string e));
                 ]
           in
           let buf = Buffer.create 256 in
           List.iter
             (fun r ->
               Buffer.add_string buf r;
               Buffer.add_char buf '\n')
             replies;
           (try write_all conn.c_fd (Buffer.contents buf)
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
            | Sys_error _ ->
              continue := false);
           (* A drain request closes the connection once the in-flight
              response is out; clients reconnect to a restarted daemon. *)
           if Atomic.get t.s_stop then continue := false
     done
   with e ->
     (* Nothing may escape a connection thread — a lost connection must
        never take the daemon down. *)
     ignore e);
  close ()

let run t ~handler =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  while not (Atomic.get t.s_stop) do
    match Unix.select [ t.s_listen ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.s_listen with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | fd, _ ->
            let conn = { c_fd = fd; c_thread = None } in
            let admitted =
              Mutex.protect t.s_lock (fun () ->
                  List.compare_length_with t.s_conns max_connections < 0
                  && begin
                       t.s_conns <- conn :: t.s_conns;
                       true
                     end)
            in
            if admitted then
              conn.c_thread <- Some (Thread.create (serve_conn t ~handler) conn)
            else begin
              (* A fresh socket's send buffer takes the short reply
                 without blocking the accept loop. *)
              (try write_all fd (busy ^ "\n") with Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close t.s_listen with Unix.Unix_error _ -> ());
  (* Drain: shut the read side of every connection so idle readers see
     EOF, while a thread inside [handler] finishes and flushes its
     response first; then wait for them all. *)
  let conns =
    Mutex.protect t.s_lock (fun () ->
        List.iter
          (fun c ->
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ | Invalid_argument _ -> ())
          t.s_conns;
        t.s_conns)
  in
  List.iter (fun c -> match c.c_thread with Some th -> Thread.join th | None -> ()) conns;
  try Unix.unlink t.s_path with Unix.Unix_error _ | Sys_error _ -> ()
