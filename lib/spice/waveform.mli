(** Waveform measurements: threshold crossings, period/frequency,
    time-weighted averages and swing, over a recorded waveform ({!t}) or
    folded over samples as a simulation produces them ({!Window}).  Each
    law (the interpolated crossing time, the trapezoid, the crossing
    slope, the min/max fold) is written once and shared by both, so a
    window reads, bit for bit, what the array functions read over the
    same samples. *)

type t = { times : float array; values : float array }

val create : float array -> float array -> t
(** @raise Invalid_argument on length mismatch, < 1 point or decreasing
    times. *)

val length : t -> int
val value_at : t -> float -> float
(** Linear interpolation between samples; clamped outside the time range. *)

type direction = Rising | Falling | Either

val crossings : ?direction:direction -> t -> level:float -> float array
(** Interpolated times where the waveform crosses [level], default both
    directions. *)

val periods : ?direction:direction -> t -> level:float -> float array
(** Successive differences of same-direction crossing times (defaults to
    [Rising]). *)

val frequency : ?direction:direction -> t -> level:float -> float option
(** Mean frequency over all measured periods; [None] when fewer than two
    same-direction crossings exist. *)

val period_jitter_rms : ?direction:direction -> t -> level:float -> float option
(** RMS deviation of period samples around their mean (cycle-to-cycle
    spread measured on the waveform itself); [None] with < 3 periods. *)

val mean : t -> float
(** Time-weighted (trapezoidal) average. *)

val peak_to_peak : t -> float

(** Measurements over the samples of a time window, taken as the samples
    arrive: what the ring-VCO characterisation reads of each transient
    ({!Vco_measure}), without recording it.  Its state grows with the
    number of crossings, not of samples.

    A window watches {e edge} channels, whose crossings of [level] it
    measures, and one channel it averages.  The first edge is the
    reference: its rising crossings and its extremes are kept.  A
    sample is in the window when [t_start <= t && t <= t_end]. *)
module Window : sig
  type t

  val create :
    t_start:float -> t_end:float -> level:float -> edges:int array ->
    mean:int -> t
  (** [edges] (at least one) and [mean] are positions in the sample
      vectors that {!observe} receives; a negative position reads 0.0 (a
      node that compiles to ground). *)

  val observe : t -> float -> float array -> unit
  (** [observe w time x] folds one sample in; [x] is only read, and
      only during the call.
      @raise Invalid_argument when [time] is before the previous
      sample's. *)

  (** The readings below raise [Invalid_argument] when no sample fell
      in the window. *)

  val rising_crossings : t -> int
  (** The reference edge's rising crossings, as
      {!crossings} [~direction:Rising] counts them. *)

  val frequency : t -> float option
  (** As {!frequency} [~direction:Rising] over the reference edge. *)

  val mean : t -> float
  (** As {!mean} over the averaged channel. *)

  val slews : t -> int -> float * float
  (** Edge [k]'s mean |dV/dt| at its rising and at its falling
      crossings: the finite difference of the two samples that bracket
      each, over those of positive duration, 0.0 with none. *)

  val extremes : t -> float * float
  (** The reference edge's least and greatest sample. *)
end
