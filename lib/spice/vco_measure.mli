(** Transistor-level characterisation of the ring VCO — the testbench of
    the paper's §4.1.  For a candidate sizing it measures the five
    performance functions the optimisation targets:

    - [fmin], [fmax]: oscillation frequency at the control-voltage range
      ends (transient analysis + crossing detection); when the bottom of
      the range is slower than the transient window resolves, fmin is
      reported as the measurement floor (which can only help the
      band-coverage spec);
    - [kvco]: (f(vctl_hi) - f(vmid)) / (vctl_hi - vmid), Hz/V — the gain
      about the upper half of the band, where the common-mode process
      shift cancels in the difference;
    - [ivco]: average supply current at mid control voltage, A;
    - [jvco]: RMS period jitter at mid control voltage, s.

    Each control voltage is one transient, or two when its window is
    extended, and each is measured as it steps: {!Transient.run} passes
    every accepted step to a {!Waveform.Window} over the window's second
    half, and no waveform is recorded.  The window reads what the array
    functions of {!Waveform} read over a recording of the same steps,
    bit for bit.

    Jitter substitutes SpectreRF's phase-noise analysis with a first-order
    estimator (DESIGN.md §2): a thermal term — noise voltage
    √(ξ·kT/C_node) referred through the measured crossing slew rate,
    accumulated over 2·N stage delays per period — plus a flicker term
    proportional to the period and the rise/fall asymmetry (Hajimiri's
    ISF result) scaled by a die-dependent 1/f-noise-magnitude factor
    derived from the sampled threshold corner, which is what makes
    jitter spread strongly die-to-die (Table 1's ∆Jvco). *)

type performance = {
  kvco : float;  (** Hz/V *)
  ivco : float;  (** A *)
  jvco : float;  (** s, RMS period jitter *)
  fmin : float;  (** Hz *)
  fmax : float;  (** Hz *)
}

val pp_performance : Format.formatter -> performance -> unit

type options = {
  vdd : float;
  vctl_lo : float;
  vctl_hi : float;
  stages : int;
  t_stop : float;        (** initial transient length *)
  dt : float;            (** initial step *)
  max_extensions : int;  (** times the window is stretched x4 for slow designs *)
  min_cycles : int;      (** rising crossings required in the window *)
  thermal_xi : float;    (** excess noise factor ξ *)
  flicker_coeff : float; (** flicker jitter per unit (period * asymmetry) *)
}

val default_options : options
(** vdd 1.2 V, vctl 0.5–1.2 V, 5 stages, 12 ns @ 5 ps growing up to x4,
    ξ = 4, flicker coefficient 1.2e-3. *)

type failure =
  | No_oscillation       (** amplitude never developed *)
  | Too_slow             (** not enough cycles even after all extensions *)
  | Analysis_error of string  (** DC/transient non-convergence *)

val failure_to_string : failure -> string

val characterise :
  ?options:options ->
  Repro_circuit.Topologies.vco_params ->
  (performance, failure) result
(** Build the nominal ring VCO at this sizing and measure it. *)

val characterise_netlist :
  ?options:options ->
  Repro_circuit.Netlist.t ->
  (performance, failure) result
(** Measure an existing ring-VCO netlist (e.g. a process-perturbed copy
    from {!Repro_circuit.Process.sample}).  The netlist must contain the
    sources ["Vdd"]/["Vctl"] and stage outputs ["s1"..]; the control
    value is swept by rewriting the ["Vctl"] source. *)

val set_vctl : Repro_circuit.Netlist.t -> float -> Repro_circuit.Netlist.t
(** Copy of the netlist with the ["Vctl"] source set to a DC value. *)
