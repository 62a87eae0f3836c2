(** Deterministic pseudo-random number generation.

    Every stochastic component of the library (NSGA-II, Monte-Carlo process
    sampling, behavioural jitter injection) threads an explicit [t] so that
    experiments are bit-reproducible from a single integer seed.  The
    generator is xoshiro256++ seeded through splitmix64, which gives
    high-quality 64-bit streams and cheap stream splitting. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Two generators
    created from the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent child stream and advances [t].
    Used to give each Monte-Carlo sample / GA island its own stream. *)

val split_n : t -> int -> t array
(** [split_n t n] pre-splits [n] independent child streams in index
    order, advancing [t] exactly [n] times.  This is the primitive the
    parallel evaluation engine uses: streams are split {e before}
    dispatch so results are bit-identical for any worker count. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps of the underlying xoshiro256
    sequence (the standard jump polynomial), yielding non-overlapping
    subsequences when interleaved with {!copy}.  Any buffered Gaussian
    deviate is discarded. *)

val copy : t -> t
(** [copy t] duplicates the current state (the copy and the original then
    evolve independently). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] draws uniformly from [\[0, 1)]. *)

val range : t -> float -> float -> float
(** [range t lo hi] draws uniformly from [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [\[0, n)]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val normal : t -> float
(** Standard normal draw (Box-Muller, both antithetic values used). *)

val gaussian : t -> mean:float -> sigma:float -> float
(** [gaussian t ~mean ~sigma] draws from N(mean, sigma^2). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform draw from a non-empty array.
    @raise Invalid_argument on an empty array. *)
