(** Blocking HTTP client for the model server — stdlib sockets only,
    with keep-alive: one connection is cached per client and reused
    across calls (calls on one [t] are serialised by a mutex; use one
    client per thread for parallel traffic).  A reused socket the
    server idled out in the meantime is replaced transparently.  The
    typed helpers target the [/v1] API.  Transient failures (connection
    refused, reset, timeout) are retried after a fixed exponential
    backoff, min(2s, 50ms·2^n) before retry n+1; protocol-level errors
    (4xx/5xx, malformed JSON) are not retried.  Connection refused is
    transient like a reset: a server restarted on the same port
    refuses connections for a moment.  A server binds only once its
    model is loaded, so a script that just started one waits with
    {!wait_ready}.

    Because both ends use {!Repro_util.Json}'s lossless float encoding,
    {!query_points} returns floats bit-identical to calling
    {!Hieropt.Perf_table.eval_points} on the served table directly. *)

type t

type error =
  | Connect_failure of string  (** could not reach the server (after retries) *)
  | Http_error of { status : int; body : string }
  | Protocol_error of string   (** malformed response *)

val error_to_string : error -> string

val create :
  ?host:string ->      (* default "127.0.0.1" *)
  ?port:int ->         (* default 8190 *)
  ?timeout:float ->    (* per-call socket timeout, seconds, default 10. *)
  ?retries:int ->      (* transient-failure retries, default 2 *)
  unit ->
  t

val shutdown : t -> unit
(** Close the cached keep-alive connection (if any).  The client
    remains usable — the next call reconnects.  Call it when a client
    is done, to release the socket promptly. *)

val get :
  ?headers:(string * string) list -> t -> string ->
  (Http.response, error) result

val post :
  ?headers:(string * string) list -> ?retries:int -> t -> string ->
  body:string -> (Http.response, error) result
(** Extra request headers ride alongside Host.  When this process is
    tracing, every call additionally carries [X-Trace-Id] and
    [X-Parent-Span] (the innermost open span) so traced servers can tag
    their handler spans with the caller's context.  [retries] overrides
    the client's transient-failure retries for this call; 0 makes one
    attempt, with no backoff. *)

val get_json : t -> string -> (Repro_util.Json.t, error) result
(** GET expecting a 200 with a JSON body. *)

val query_points :
  ?retries:int ->
  t ->
  model:string ->
  (float * float) array ->
  (Hieropt.Perf_table.point_eval array, error) result
(** POST the (kvco, ivco) batch to [/v1/models/:model/query] and decode
    the results, checking count and order.  A server answers only
    [~model:]{!Api.model_id}; any other id is an [Http_error] 404.
    [retries] is as for {!post}. *)

val wait_ready : ?deadline:float -> t -> bool
(** Poll [/v1/healthz] until it answers 200 or [deadline] seconds
    (default 5) elapse.  For scripts that just forked a server. *)
