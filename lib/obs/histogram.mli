(** Fixed log-bucket histograms for latencies and other positive-ish
    values, with quantile estimates.

    Buckets are geometric from 1 µs to ~17 min, 72 of them, a constant
    ~21% relative width.  Values
    outside the range land in the edge buckets.  Quantiles interpolate
    geometrically within a bucket and clamp to the observed min/max, so
    they are monotone in [q], always bounded by the true extremes, and
    exact when all observations are equal.

    Instances are mutex-protected; a global named registry mirrors the
    Telemetry counter registry and feeds [GET /v1/metrics]. *)

type t

val create : unit -> t
val observe : t -> float -> unit
(** Record one value; non-finite values are dropped. *)

val time : t -> (unit -> 'a) -> 'a
(** Run a thunk and record its wall-clock duration in seconds (also on
    exceptions). *)

val quantile : t -> float -> float
(** Estimated q-quantile ([0..1], clamped); 0 when empty. *)

val count : t -> int

type stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val stats : t -> stats
(** One consistent point-in-time summary (all fields 0 when empty). *)

(** {2 Named registry} *)

val get : string -> t
(** Find-or-create by name. *)

val all : unit -> (string * t) list
(** Every registered histogram, name-sorted. *)

val clear_registry : unit -> unit
(** Drop all registered histograms (tests).  Handles already held stay
    usable but are no longer listed; the program's own are created at
    module initialisation. *)
