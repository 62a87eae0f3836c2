(** Minimal HTTP/1.1 message layer over [Unix] file descriptors: just
    enough protocol for the model server and its blocking client —
    request/response lines, headers, [Content-Length] bodies,
    keep-alive.  No chunked transfer, no TLS, no pipelined writes.

    Every read goes through a {!Reader}, a small pull buffer that can
    also wrap an in-memory string (unit tests parse messages without a
    socket).  Hard limits (line length, header count, body size) turn
    hostile or corrupt input into [`Bad_request]/[`Too_large] instead
    of unbounded allocation. *)

module Reader : sig
  type t

  val of_fd : Unix.file_descr -> t
  val of_string : string -> t
end

val max_body : int
(** Largest accepted [Content-Length], in bytes. *)

val max_head : int
(** Backstop for incremental parsing: the largest head block (request
    line + headers + blank line) a {!Conn} will buffer before giving up
    with [`Too_large].  Looser than the per-line/per-count limits that
    apply once the block parses. *)

type request = {
  meth : string;         (** verb, uppercased: GET, POST, ... *)
  target : string;       (** raw request target, e.g. /models/a/query?x=1 *)
  path : string list;    (** decoded, non-empty segments: ["models"; "a"; "query"] *)
  version : string;      (** "HTTP/1.0" or "HTTP/1.1" *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
}

type error =
  [ `Eof           (** clean end of stream before a message started *)
  | `Timeout       (** the fd's receive timeout expired *)
  | `Bad_request of string
  | `Too_large of string ]

val error_to_string : error -> string

val header : string -> (string * string) list -> string option
(** Case-insensitive header lookup (names are stored lowercased). *)

val read_response : Reader.t -> (response, error) result

val body_length : (string * string) list -> (int, error) result
(** Bytes of body the headers announce: [Content-Length] validated
    against {!max_body}, 0 when absent, [`Bad_request] on
    [Transfer-Encoding] (chunked is not supported). *)

val parse_request_head : string -> (request, error) result
(** Parse a complete head block — request line through the terminating
    blank line — delivered by the incremental state machine.  The
    returned [body] is [""]; callers read {!body_length} more bytes. *)

val keep_alive : request -> bool
(** HTTP/1.1 defaults to persistent connections; [Connection: close]
    (or HTTP/1.0 without [Connection: keep-alive]) turns it off. *)

val reason_phrase : int -> string

val render_response :
  ?headers:(string * string) list ->
  keep_alive:bool ->
  status:int ->
  body:string ->
  Buffer.t ->
  unit
(** Serialise one response (status line, supplied headers,
    [Content-Length], [Connection]) into [buf] — the single source of
    response bytes, used by the event-loop write path.
    [Content-Type: application/json] is added unless [headers] already
    carries a content type. *)

val write_request :
  ?headers:(string * string) list ->
  meth:string ->
  target:string ->
  body:string ->
  Unix.file_descr ->
  unit
