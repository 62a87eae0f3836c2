(** Fixed log-bucket histograms for latencies and other positive-ish
    values, with quantile estimates.

    Buckets are geometric between [lo] and [hi] (defaults cover 1 µs to
    ~17 min in 72 buckets, a constant ~21% relative width).  Values
    outside the range land in the edge buckets.  Quantiles interpolate
    geometrically within a bucket and clamp to the observed min/max, so
    they are monotone in [q], always bounded by the true extremes, and
    exact when all observations are equal.

    Instances are mutex-protected; a global named registry mirrors the
    Telemetry counter registry and feeds [GET /metrics]. *)

type t

val create : ?buckets:int -> ?lo:float -> ?hi:float -> unit -> t
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

val get : ?buckets:int -> ?lo:float -> ?hi:float -> string -> t
(** Find-or-create by name; size parameters apply only on creation. *)

val all : unit -> (string * t) list
(** Every registered histogram, name-sorted. *)

val clear_registry : unit -> unit
(** Drop all registered histograms (tests).  Handles already held stay
    usable but are no longer listed; the program's own are created at
    module initialisation. *)
