(** Behavioural charge-pump PLL (the paper's Figure 5 system): PFD +
    charge pump + passive loop filter + ÷N divider + behavioural VCO,
    co-simulated at a fixed time step.

    [evaluate] produces the three system performances of Table 2 —
    lock time (from the time-domain transient), jitter sum (Kundert's
    accumulation formula J·√(2·fout·τloop), τloop from the linear
    analysis — reference [13] of the paper) and current consumption
    (VCO + charge pump + fixed overhead). *)

type config = {
  fref : float;                   (** reference frequency, Hz *)
  n_div : int;                    (** feedback divider modulus *)
  cp : Charge_pump.t;
  filter : Loop_filter.params;
  vco : Vco_model.params;
  ivco : float;                   (** VCO supply current, A *)
  overhead_current : float;      (** PFD/CP/divider static+dynamic, A *)
  vctl_init : float;              (** control voltage at t = 0 *)
}

val target_frequency : config -> float
(** n_div * fref. *)

type sim_options = {
  t_stop : float;
  dt : float;                (** <= fref period / 50 recommended *)
  lock_tolerance : float;    (** relative output-frequency error *)
  lock_hold : float;         (** s the error must stay in-band *)
  record_stride : int;       (** trace decimation, >= 1 *)
}

val default_sim_options : config -> sim_options
(** 2 µs, Tref/200 step, 0.5% tolerance held for 10 reference cycles. *)

type sim_result = {
  locked : bool;
  lock_time : float option;       (** s; [None] when never locked *)
  vctl_trace : (float * float) array;
  freq_trace : (float * float) array;
  final_vctl : float;
  final_freq : float;
  cp_duty : float;                (** pump activity after lock *)
}

val simulate : ?prng:Repro_util.Prng.t -> config -> sim_options -> sim_result
(** Time-domain transient from [vctl_init], recording both traces every
    [record_stride] steps (Figure 8).  Passing [prng] enables VCO jitter
    injection (Listing 2's [$rdist_normal]).  Each call adds 1 to the
    [pll.sims] telemetry counter and its step count to [pll.steps].
    @raise Invalid_argument on invalid filter or VCO parameters, or when
    [dt <= 0], [t_stop <= dt] or [record_stride <= 0]. *)

type performance = {
  lock_time : float;    (** s *)
  jitter_sum : float;   (** s, accumulated output jitter *)
  current : float;      (** A *)
}

val pp_performance : Format.formatter -> performance -> unit

val evaluate : config -> (performance, string) result
(** Full evaluation: linear stability screen, transient lock check, and
    the three Table-2 performances.  [Error] explains unstable /
    unlocked configurations.  The transient is {!simulate}'s stepping
    loop at {!default_sim_options}, bit for bit, without a [prng] and
    without recording traces, so a call promotes next to nothing to the
    major heap; it counts in [pll.sims] and [pll.steps] like
    {!simulate}. *)

val measured_output_jitter :
  prng:Repro_util.Prng.t -> config -> cycles:int -> float
(** Monte-Carlo check of the jitter-accumulation formula: simulate the
    locked loop with jitter injection for [cycles] VCO cycles and return
    the RMS edge-time deviation (tests compare this against
    [jitter_sum]). *)

val reference_spur_dbc : config -> float
(** Leakage/mismatch reference-spur estimate (Banerjee): the charge pump
    corrects the control-node error once per reference cycle, producing
    ripple v = i_err·|Z(j2πfref)| that frequency-modulates the VCO;
    narrowband FM puts the spur at
    20·log10(Kvco·v_ripple / (2·fref)) dBc.  [i_err] combines the pump
    leakage with the up/down mismatch at the locked duty cycle.  More
    negative is better; an ideal pump with zero leakage returns
    [neg_infinity]. *)
