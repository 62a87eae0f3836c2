(** Pull-based HTTP/1.1 connection state machine for the event-loop
    server: no file descriptors, no syscalls, no blocking — just bytes
    in, parsed requests out, response bytes queued for the loop to
    drain.

    Reads: {!feed} absorbs a chunk and returns every complete request
    it finished (pipelined clients can yield several per feed; a
    partial message yields none and is resumed by the next feed).
    Limits are {!Http.max_head}, {!Http.max_body} and
    {!Http.parse_request_head}'s per-line/per-count caps — a violation
    yields one [Protocol_error] event after which the connection parses
    nothing more ({!broken}).

    Writes: {!push_response} serialises through {!Http.render_response}
    into a growable output buffer; the loop drains it via {!output} /
    {!output_consumed} as the socket accepts bytes, and applies
    backpressure (stops reading) when {!output_pending} is high. *)

type t

type event =
  | Request of Http.request
  | Protocol_error of Http.error
      (** respond 400/413 with [Connection: close] and stop reading *)

val create : unit -> t

val feed : t -> Bytes.t -> int -> int -> event list
(** [feed t buf off len] absorbs [len] bytes and returns completed
    events in arrival order.  Returns [[]] once the connection is
    {!broken}. *)

val push_response :
  ?headers:(string * string) list ->
  keep_alive:bool ->
  status:int ->
  body:string ->
  t ->
  unit
(** Queue one serialised response; [keep_alive:false] also marks the
    connection {!close_after_flush}. *)

val output_pending : t -> int
(** Bytes queued but not yet accepted by the socket. *)

val output : t -> Bytes.t * int * int
(** [buffer, offset, length] of the pending output — valid until the
    next call that mutates [t]. *)

val output_consumed : t -> int -> unit
(** The loop wrote [n] bytes; drop them from the buffer. *)

val close_after_flush : t -> bool
val set_close_after_flush : t -> unit

val broken : t -> bool
(** A protocol error was emitted; feed is inert. *)

val input_pending : t -> bool
(** Unconsumed input bytes are buffered (a partial message). *)

val mid_request : t -> bool
(** A request has started arriving but is not complete — used by the
    drain logic to give half-read requests a grace period. *)
