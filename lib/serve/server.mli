(** The model server: a readiness-based event loop.  One Domain runs
    a [Unix.select] loop over the listener, a wake pipe and the
    accepted connections; the traffic it is sized for is
    [system --remote]'s one keep-alive connection querying in
    sequence.  Sockets are non-blocking; bytes are fed to a
    per-connection {!Conn} state machine and complete requests are
    answered inline, with responses drained through a write buffer
    under backpressure (a connection whose output backlog passes the
    high watermark stops being read until it drains).

    Lifecycle: {!start} binds and returns immediately (port 0 is
    resolved — read the bound port back from {!port}); {!stop} begins a
    graceful drain — the listener closes, idle connections are dropped,
    half-read requests get answered with [Connection: close] — and past
    [drain_timeout] remaining connections are force-closed.  {!wait}
    blocks until the drain completes.  {!install_signal_handlers} maps
    SIGTERM/SIGINT onto {!stop}.

    Per-connection activity is bounded by [request_timeout] (idle or
    stalled-mid-request connections are reaped by the loop), so a slow
    or hostile client cannot pin the server.  {!Api.handle} runs inline
    on the loop's domain. *)

type t

val start :
  ?addr:string ->             (* bind address, default "127.0.0.1" *)
  ?port:int ->                (* default 8190; 0 = ephemeral *)
  ?request_timeout:float ->   (* idle/stall bound, seconds, default 10. *)
  api:Api.t ->
  unit ->
  t
(** Start the model server: the HTTP machinery (event loop, keep-alive,
    drain) around {!Api.handle}.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actually-bound port (useful after [?port:0]). *)

val stop : ?drain_timeout:float -> t -> unit
(** Begin graceful shutdown; idempotent.  [drain_timeout] (default 5
    seconds) bounds how long in-flight connections may take to finish
    before their descriptors are closed under them. *)

val wait : t -> unit
(** Block until the server has fully stopped (call {!stop} first, or
    rely on {!install_signal_handlers}). *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT trigger [stop t]; SIGPIPE is ignored (a client
    hanging up mid-response must not kill the process). *)
