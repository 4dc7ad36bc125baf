(* Transport only: newline-framed requests over a Unix-domain socket,
   served by reused worker threads. Checking semantics (parsing,
   caching, verdicts) live behind the [handler]; this module owns the
   sockets, the framing, the workers, the drain-on-stop choreography and
   nothing else. *)

type handler = string -> string list

(* A worker thread's hand-off slot, guarded by [s_lock]. The accept loop
   hands a connection ([w_conn]) to, or retires ([w_retired]), only a
   worker it takes off the idle list, then signals [w_wake]; so an idle
   worker gets one or the other, never both. *)
type worker = {
  w_wake : Condition.t;
  mutable w_conn : Unix.file_descr option;
      (* The connection handed over and not yet taken. *)
  mutable w_idle_since : float;
  mutable w_retired : bool;
}

type t = {
  s_path : string;
  s_listen : Unix.file_descr;
  s_stop : bool Atomic.t;
  s_lock : Mutex.t;
  mutable s_conns : Unix.file_descr list;
      (* Guarded by [s_lock]: the open connections. A connection leaves
         the list as its descriptor is closed, which the OS may then
         reuse, so the drain never touches a closed one. *)
  mutable s_idle : worker list;
      (* Guarded by [s_lock]: the workers waiting for a connection, the
         most recently idle first. *)
}

(* The most connections served at once, and so the most workers: the
   listen backlog. A connection over it is answered and closed by the
   accept loop, so a flood of idle connections cannot make the daemon
   start threads without limit. *)
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
    s_idle = [];
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

(* The seconds a connection has to complete a request line, counted from
   its accept or from the server's previous reply on it. Over it, the
   connection is answered with a code-3 error and closed, so idle
   connections cannot hold every place under the connection cap. The
   bound runs only while the server reads: a check takes as long as it
   takes. *)
let idle_timeout_s = 5.0

let idle_timeout = {|{"serve":1,"error":"idle timeout","code":3}|}

exception Idle

(* Reads newline-framed lines from the connection's channel through a
   small chunk; [pos, len) of [chunk] is read but not yet consumed. The
   channel does the buffering (and its out-of-heap buffer keeps the
   major GC paced to the connection rate, which a large chunk on the
   OCaml heap would not), so the chunk stays small. *)
type reader = {
  fd : Unix.file_descr;
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
  mutable deadline : float;  (** When the line being read must be complete. *)
}

(* Each read of the descriptor waits at most until the deadline: the
   receive timeout is re-armed with the time left before every fill, so
   a client trickling bytes cannot stretch the bound. A read that times
   out surfaces as [Sys_blocked_io]. A timeout under a millisecond is
   not armed, as a zero one would mean none. *)
let fill r =
  let left = r.deadline -. Unix.gettimeofday () in
  if left < 1e-3 then raise Idle;
  Unix.setsockopt_float r.fd Unix.SO_RCVTIMEO left;
  r.pos <- 0;
  r.len <- (try input r.ic r.chunk 0 (Bytes.length r.chunk) with Sys_blocked_io -> raise Idle)

(* [input_line] (an unterminated last line included), or [None] once the
   line passes [max_line_bytes]. Raises [End_of_file] at end of input and
   [Idle] at the deadline. *)
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

(* Under [s_lock], as the worker's connection closes: the worker waits
   for the next one, or retires if the server is draining. *)
let park t w =
  if Atomic.get t.s_stop then w.w_retired <- true
  else begin
    w.w_idle_since <- Unix.gettimeofday ();
    t.s_idle <- w :: t.s_idle
  end

let serve_conn t ~handler w fd =
  let ic = Unix.in_channel_of_descr fd in
  let reader =
    {
      fd;
      ic;
      chunk = Bytes.create 512;
      pos = 0;
      len = 0;
      line = Buffer.create 256;
      deadline = Unix.gettimeofday () +. idle_timeout_s;
    }
  in
  let close () =
    Mutex.protect t.s_lock (fun () ->
        (* close_in closes the underlying descriptor too. *)
        close_in_noerr ic;
        t.s_conns <- List.filter (fun c -> c != fd) t.s_conns;
        (* Idle as its connection leaves the list, so a client that has
           seen its connection closed finds this worker ready. *)
        park t w)
  in
  (try
     let continue = ref true in
     while !continue do
       match read_line reader with
       | exception End_of_file -> continue := false
       | exception Sys_error _ -> continue := false
       | exception Idle ->
           (try write_all fd (idle_timeout ^ "\n")
            with Unix.Unix_error _ | Sys_error _ -> ());
           continue := false
       | None ->
           (try write_all fd (line_too_long ^ "\n")
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
           (try write_all fd (Buffer.contents buf)
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
            | Sys_error _ ->
              continue := false);
           reader.deadline <- Unix.gettimeofday () +. idle_timeout_s;
           (* A drain request closes the connection once the in-flight
              response is out; clients reconnect to a restarted daemon. *)
           if Atomic.get t.s_stop then continue := false
     done
   with e ->
     (* Nothing may escape a worker — a lost connection must never take
        the daemon down. *)
     ignore e);
  close ()

(* A worker's life: serve a connection, wait for the next, until the
   accept loop or the drain retires it. *)
let rec work t ~handler w fd =
  serve_conn t ~handler w fd;
  let next =
    Mutex.protect t.s_lock (fun () ->
        while Option.is_none w.w_conn && not w.w_retired do
          Condition.wait w.w_wake t.s_lock
        done;
        let next = w.w_conn in
        w.w_conn <- None;
        next)
  in
  match next with Some fd -> work t ~handler w fd | None -> ()

let retire w =
  w.w_retired <- true;
  Condition.signal w.w_wake

(* A fresh socket's send buffer takes the short reply without blocking
   the accept loop. *)
let refuse fd =
  (try write_all fd (busy ^ "\n") with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run t ~handler =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* Every worker started and not yet retired, with its thread. Only
     this loop starts, hands out to and retires workers. *)
  let workers = ref [] in
  let admit fd =
    let decision =
      Mutex.protect t.s_lock (fun () ->
          if List.compare_length_with t.s_conns max_connections >= 0 then `Refuse
          else begin
            t.s_conns <- fd :: t.s_conns;
            match t.s_idle with
            | w :: rest ->
                t.s_idle <- rest;
                w.w_conn <- Some fd;
                Condition.signal w.w_wake;
                `Handed
            | [] -> `Start
          end)
    in
    match decision with
    | `Handed -> ()
    | `Refuse -> refuse fd
    | `Start -> (
        let w =
          {
            w_wake = Condition.create ();
            w_conn = None;
            w_idle_since = 0.;
            w_retired = false;
          }
        in
        match Thread.create (fun fd -> work t ~handler w fd) fd with
        | th -> workers := (w, th) :: !workers
        | exception (Sys_error _ | Out_of_memory) ->
            (* No thread can start (the address space or the process's
               thread limit is spent): refuse this connection, keep
               serving the others. *)
            Mutex.protect t.s_lock (fun () ->
                t.s_conns <- List.filter (fun c -> c != fd) t.s_conns);
            refuse fd)
  in
  (* Retire the workers idle for [idle_timeout_s], so a burst's workers
     do not keep their stacks' address space after it. *)
  let sweep () =
    let now = Unix.gettimeofday () in
    let expired =
      Mutex.protect t.s_lock (fun () ->
          let expired, fresh =
            List.partition (fun w -> now -. w.w_idle_since >= idle_timeout_s) t.s_idle
          in
          t.s_idle <- fresh;
          List.iter retire expired;
          expired)
    in
    match expired with
    | [] -> ()
    | _ ->
        let gone, live = List.partition (fun (w, _) -> List.memq w expired) !workers in
        workers := live;
        List.iter (fun (_, th) -> Thread.join th) gone
  in
  while not (Atomic.get t.s_stop) do
    (match Unix.select [ t.s_listen ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.s_listen with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | fd, _ -> admit fd)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    sweep ()
  done;
  (try Unix.close t.s_listen with Unix.Unix_error _ -> ());
  (* Drain: shut the read side of every connection so idle readers see
     EOF, while a worker inside [handler] finishes and flushes its
     response first; retire the idle workers (a busy one retires itself
     as its connection closes); then wait for them all. *)
  Mutex.protect t.s_lock (fun () ->
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ | Invalid_argument _ -> ())
        t.s_conns;
      List.iter retire t.s_idle;
      t.s_idle <- []);
  List.iter (fun (_, th) -> Thread.join th) !workers;
  try Unix.unlink t.s_path with Unix.Unix_error _ | Sys_error _ -> ()
