(** A one-shot client for the [gemcheck serve] protocol: connect, send
    one request line, read the header and its announced body lines,
    disconnect. Used by [gemcheck client], the serve benchmarks and the
    end-to-end tests. *)

type response = {
  header : string;  (** The raw header line. *)
  body : string list;  (** Exactly the [body]-count lines that followed. *)
  code : int;  (** The header's ["code"] field. *)
  error : string option;  (** The header's ["error"] field, if any. *)
}

val request : socket:string -> string -> (response, string) result
(** [request ~socket line] performs one round trip. [Error] covers
    transport problems (no daemon at [socket], disconnect mid-response)
    and malformed headers — protocol-level errors from a healthy daemon
    come back as [Ok] with [error = Some _] — and a [line] that contains
    a line feed, which the wire would split into two requests; it is
    refused before connecting. A daemon over its connection cap answers
    busy and closes at once: when the send then fails, the reply is
    still read and returned. The caller should ignore [SIGPIPE], as
    [gemcheck client] does, or that failed send kills the process. *)

val field_int : string -> string -> int option
(** [field_int header name] extracts an integer field from a header line
    this module's daemon wrote ([..."name":42...]). Exposed for tests. *)

val field_string : string -> string -> string option
(** Same for string fields; undoes JSON escaping. *)
