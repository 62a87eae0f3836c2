(** Behavioural charge-pump PLL (the paper's Figure 5 system): PFD +
    charge pump + passive loop filter + ÷N divider + behavioural VCO,
    co-simulated at a fixed time step.  The blocks' modules hold their
    parameters and laws that need no state; the step laws below are
    this module's, and its one stepping loop carries the whole state.

    That loop steps a batch of configurations sharing one reference
    clock and one {!sim_options} in lockstep: each step computes the
    reference phase and edge once, then advances every simulation by
    the same expressions, in the same order, as it would alone, so a
    batch's results are bit for bit its configurations' one by one.
    One simulation's step is a serial chain (the filter's division,
    the tuning law, the phase add); stepping independent simulations
    side by side lets the core overlap their chains.  Each
    simulation's state lives in a flat float record and a small int
    record, allocated once per call.  {!evaluate_batch} is the batched
    entry; {!evaluate} and {!simulate} are its one-configuration
    cases.

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
    [record_stride] steps (Figure 8): the stepping loop's
    one-configuration case.  Passing [prng] enables VCO jitter
    injection (Listing 2's [$rdist_normal]).  Each call adds 1 to the
    [pll.sims] telemetry counter and its step count to [pll.steps].
    @raise Invalid_argument on invalid filter or VCO parameters, or when
    [n_div < 1], [dt <= 0], [t_stop <= dt] or [record_stride <= 0]. *)

(** {1 Step laws}

    One time step applies, in order: the reference edge, the VCO phase
    and a divider step per VCO edge, the pump's state, the backward-Euler
    filter, then the tuning law ({!Vco_model.frequency}, whose expression
    the loop inlines).  The stepping loop and {!measured_output_jitter}
    step through these laws and call no other module, except
    [Repro_util.Prng.gaussian] on the jittered path, so an unjittered
    step allocates nothing. *)

val floor : float -> float
(** [Float.floor], bit for bit, computed without a libm call where
    0 < x < 2{^52}.  A step takes the floor of the reference and VCO
    phases; an edge is a rise of the floor since the previous step. *)

val pfd_ref_edge : Pfd.state -> Pfd.state
(** The detector after a rising reference edge: [Down] resets to
    [Neutral], otherwise [Up].  The loop starts at [Neutral]. *)

val pfd_div_edge : Pfd.state -> Pfd.state
(** The detector after a rising divided-clock edge: [Up] resets to
    [Neutral], otherwise [Down]. *)

val divider_count : n:int -> int -> int
(** The ÷[n] divider's count after one more VCO edge, from 0; its
    output edge is the count's return to 0, every [n] VCO edges. *)

type filter_coeffs
(** The loop filter's backward-Euler matrix for one [(params, dt)]
    pair. *)

val filter_coeffs : Loop_filter.params -> dt:float -> filter_coeffs

val filter_vctl :
  filter_coeffs -> vctl:float -> vc1:float -> inj:float -> float
(** The control-node voltage (across C2) one step after [vctl] and
    [vc1] (across C1), with [inj] from {!Loop_filter.injection}. *)

val filter_vc1 :
  filter_coeffs -> vctl:float -> vc1:float -> inj:float -> float
(** The voltage across C1 after the same step. *)

val vco_jitter :
  Repro_util.Prng.t -> Vco_model.params -> f:float -> dt:float -> float
(** The phase noise, in cycles, of one step of [dt] at frequency [f]: a
    Gaussian draw whose variance is the per-cycle [jitter]'s over the
    f·dt cycles of the step, so the phase is a random walk.  0 without
    a draw when [jitter] is 0. *)

val vco_phase : f:float -> dt:float -> noise:float -> float -> float
(** The VCO phase, in cycles, one step of [dt] at frequency [f] after
    the given phase; the step plus [noise] never runs it backwards. *)

type performance = {
  lock_time : float;    (** s *)
  jitter_sum : float;   (** s, accumulated output jitter *)
  current : float;      (** A *)
}

val pp_performance : Format.formatter -> performance -> unit

val evaluate : config -> (performance, string) result
(** Full evaluation: linear stability screen, transient lock check, and
    the three Table-2 performances.  [Error] explains unstable /
    unlocked configurations.  [evaluate cfg] is {!evaluate_batch} of
    [[| cfg |]]. *)

val evaluate_batch : config array -> (performance, string) result array
(** {!evaluate} of each config, in input order, bit for bit.  The
    configs go in slices of at most 64.  In a slice every config first
    takes the linear screen, and one that fails it is never simulated;
    the others are simulated in lockstep, one group per reference
    frequency, at its {!default_sim_options}, without a [prng] and
    without recording traces.  Each simulated config counts in
    [pll.sims] and [pll.steps] like {!simulate}.
    @raise Invalid_argument as {!simulate} does, for any config that
    passes the screen. *)

val measured_output_jitter :
  prng:Repro_util.Prng.t -> config -> cycles:int -> float
(** Monte-Carlo check of the jitter-accumulation formula: simulate the
    locked loop with jitter injection for [cycles] VCO cycles and return
    the RMS edge-time deviation (tests compare this against
    [jitter_sum]). *)
