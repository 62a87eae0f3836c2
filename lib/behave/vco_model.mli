(** Behavioural VCO: linear tuning, frequency clamping at the measured
    band edges and per-cycle jitter — the parameters of the paper's
    Listing 2 Verilog-A model.  {!Pll} accumulates its phase
    ({!Pll.vco_phase}).  Listing 2 draws [$rdist_normal] once per output
    transition; {!Pll} instead diffuses the phase on every time step,
    with the variance that [jitter] per cycle accumulates over the step
    ({!Pll.vco_jitter}). *)

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
