(** A line-framed Unix-domain-socket server — the transport under
    [gemcheck serve].

    The protocol is deliberately primitive: a client sends one request
    per line ([\n]-terminated); the server answers with one or more
    complete lines and keeps the connection open for further requests.
    What the lines {e mean} is the caller's business — the server is
    generic over a [handler : string -> string list] so the checking
    daemon, the bench harness and the tests can all drive it with their
    own vocabularies.

    Robustness contract (exercised by [test/test_serve.ml] and the CI
    serve smoke leg):
    - a request line longer than {!max_line_bytes} (newline excluded) is
      answered with [{"serve":1,"error":"request line too long","code":3}]
      and its connection closed;
    - at most {!max_connections} connections are served at once; one
      accepted over the cap is answered with
      [{"serve":1,"error":"busy","code":3}] and closed without a thread;
    - a connection that has not completed a request line within
      {!idle_timeout_s} of its accept or of its previous reply is
      answered with [{"serve":1,"error":"idle timeout","code":3}] and
      closed;
    - a handler exception answers that request with a one-line JSON
      error and leaves the connection (and the server) alive;
    - a client disconnecting mid-response kills only that connection;
    - {!request_stop} (wired to SIGINT/SIGTERM by the CLI) stops
      accepting, {e drains} in-flight requests — each connection thread
      finishes its current handler call and flushes the response before
      closing — and removes the socket file on the way out.

    Each accepted connection is served by its own [Thread]; handler
    calls for different connections therefore overlap, which is what
    lets {!Cache.find_or_compute} coalesce concurrent duplicates. *)

type handler = string -> string list
(** Maps one request line (without the terminating newline) to response
    lines (each sent with a terminating newline). Must be thread-safe. *)

type t

val max_line_bytes : int
(** The longest request line the server reads: 1 MiB. *)

val max_connections : int
(** The most connections served at once: 64, also the listen backlog. *)

val idle_timeout_s : float
(** The seconds a connection has to complete a request line, from its
    accept or from the previous reply: 5. The bound runs only while the
    server reads, never while the handler checks. *)

val create : socket:string -> unit -> t
(** Bind and listen on a Unix-domain socket at [socket], replacing any
    stale socket file left by a previous process. Raises [Unix_error]
    when binding fails (e.g. the directory does not exist). *)

val socket_path : t -> string

val live_connections : t -> int
(** Connections accepted and not yet closed — the ones a drain would
    wait for. *)

val run : t -> handler:handler -> unit
(** Accept and serve connections until {!request_stop}. Blocks the
    calling thread; the CLI calls it from the main thread so a signal
    interrupts the accept wait immediately. Returns only after every
    connection thread has been joined, the listening socket closed and
    the socket file unlinked. Ignores [SIGPIPE] process-wide (a
    disconnecting client must surface as [EPIPE], not kill the
    daemon). *)

val request_stop : t -> unit
(** Async-signal-safe: flips an atomic flag the accept loop polls.
    Idempotent. *)

val stopping : t -> bool

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal — exposed for
    handlers composing error replies out of exception messages. *)
