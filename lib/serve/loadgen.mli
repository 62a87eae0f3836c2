(** Closed-loop load generator for the model server, used by the
    saturation bench and the CLI [loadgen] subcommand.

    It runs [connections] keep-alive connections back-to-back: a new
    request fires the moment the previous response lands — the classic
    saturation probe.

    The first [warmup] seconds are excluded from the recorded window
    (connection set-up, cache warmup); latencies go through
    {!Repro_obs.Histogram} with fine sub-millisecond buckets.
    Non-200s and transport failures count as [errors] and are never
    retried. *)

type result = {
  connections : int;
  window : float;  (** measured seconds (excludes warmup) *)
  requests : int;  (** successful requests in the window *)
  errors : int;
  qps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

val run :
  ?connections:int ->    (* default 4, min 1 *)
  ?duration:float ->     (* measured window, seconds, default 2. *)
  ?warmup:float ->       (* unrecorded lead-in, seconds, default 0.25 *)
  ?host:string ->        (* default "127.0.0.1" *)
  port:int ->
  target:string ->       (* request target, e.g. /v1/models/default/query *)
  body:string ->         (* POST body sent on every request *)
  unit ->
  result
(** Blocks for [warmup + duration] and returns the aggregated result. *)

val pp : out_channel -> result -> unit
(** One human-readable summary line (no trailing newline). *)
