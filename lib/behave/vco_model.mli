(** Behavioural VCO: phase accumulation with linear tuning, frequency
    clamping at the measured band edges and jitter injection — the OCaml
    counterpart of the paper's Listing 2 Verilog-A model.  Listing 2
    draws [$rdist_normal] once per output transition; this model
    instead diffuses the phase on every time step, with the variance
    that [jitter] per cycle accumulates over the step (see {!advance}). *)

type params = {
  f0 : float;       (** free-running frequency at [v0], Hz *)
  v0 : float;       (** control voltage at which f = f0 *)
  kvco : float;     (** Hz/V *)
  fmin : float;     (** lower clamp, Hz *)
  fmax : float;     (** upper clamp, Hz *)
  jitter : float;   (** RMS period jitter per cycle, s *)
}

val validate : params -> unit
(** @raise Invalid_argument on inverted or NaN clamps or negative
    jitter. *)

val frequency : params -> float -> float
(** Instantaneous (clamped) frequency at a control voltage. *)

val floor : float -> float
(** [Float.floor], bit for bit, computed without a libm call where
    0 < x < 2{^52}.  {!advance} inlines it; a call from another module
    boxes its argument and result. *)

type t

val create : ?prng:Repro_util.Prng.t -> params -> t
(** A new oscillator at phase 0, tuned to [v0].  Jitter injection needs
    a [prng]; without one the model is noiseless. *)

val tune : t -> vctl:float -> float
(** Set the control voltage for the following {!advance} calls; returns
    the frequency it gives, {!frequency} of [vctl]. *)

val phase : t -> float
(** Accumulated phase in cycles. *)

val advance : t -> dt:float -> int
(** Advance the oscillator by [dt] at the tuned frequency; returns the
    number of rising output edges produced during the interval (0 or
    more).  With a [prng], every step adds a Gaussian phase increment, a
    random walk with the configured per-cycle RMS.  Allocates nothing
    without a [prng]. *)

val reset : t -> unit
(** Back to phase 0; the tuning stays. *)
