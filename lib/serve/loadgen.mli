(** Closed- and open-loop load generator for the model server, used by
    the saturation bench and the CLI [loadgen] subcommand.

    [Closed] mode runs [connections] keep-alive connections
    back-to-back: a new request fires the moment the previous response
    lands — the classic saturation probe.  [Open_target qps] fires on a
    fixed schedule at the target rate (split evenly across
    connections, phase-staggered) and measures latency from the
    {e scheduled} send slot, so server-side queueing is charged to the
    server rather than hidden by coordinated omission.

    The first [warmup] seconds are excluded from the recorded window
    (connection set-up, cache warmup); latencies go through
    {!Repro_obs.Histogram} with fine sub-millisecond buckets.
    Non-200s and transport failures count as [errors] and are never
    retried. *)

type mode = Closed | Open_target of float  (** target qps *)

type result = {
  mode : string;
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
  ?mode:mode ->          (* default Closed *)
  ?connections:int ->    (* default 4, min 1 *)
  ?duration:float ->     (* measured window, seconds, default 2. *)
  ?warmup:float ->       (* unrecorded lead-in, seconds, default 0.25 *)
  ?host:string ->        (* default "127.0.0.1" *)
  port:int ->
  target:string ->       (* request target, e.g. /v1/models/default/query *)
  body:string ->         (* POST body sent on every request *)
  unit ->
  result
(** Blocks for [warmup + duration] (closed mode; open mode runs the
    schedule to its end) and returns the aggregated result. *)

val pp : out_channel -> result -> unit
(** One human-readable summary line (no trailing newline). *)
