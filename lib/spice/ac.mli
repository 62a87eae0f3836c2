(** AC small-signal analysis.

    The circuit is linearised at a DC operating point (the Newton
    Jacobian there {e is} the small-signal conductance matrix G) and the
    complex system (G + jωC)·x = b is solved per frequency with a
    real-valued 2n×2n embedding, factorised under the Newton kernel's
    policy ({!Mna.with_factoriser}).  The embedding's structure is fixed
    across the sweep (only ω scales the C stamps), so its symbolic
    factorisation runs once and every frequency point costs one numeric
    refactorisation.

    The stimulus is a unit AC magnitude on a named voltage source; every
    node voltage is then directly the transfer function to that node.
    Used for loop-filter verification, amplifier Bode/GBW/phase-margin
    extraction ({!Ota_measure}) and cross-checking the behavioural PLL's
    s-domain analysis. *)

type t
(** A linearised circuit ready for frequency sweeps. *)

val linearise : Mna.compiled -> Dcop.result -> t
(** Capture G (at the operating point) and C once; sweeps then cost one
    complex solve per frequency. *)

val transfer :
  t ->
  input:string ->
  output:string ->
  float ->
  Complex.t
(** [transfer t ~input ~output f]: complex gain from a unit AC stimulus
    on voltage source [input] to node [output] at frequency [f] (Hz).
    @raise Not_found for unknown source/node names. *)

type sweep_point = {
  freq : float;          (** Hz *)
  gain : Complex.t;
  magnitude_db : float;
  phase_deg : float;
}

val sweep :
  t ->
  input:string ->
  output:string ->
  freqs:float array ->
  sweep_point array

val logsweep :
  t ->
  input:string ->
  output:string ->
  f_start:float ->
  f_stop:float ->
  points:int ->
  sweep_point array
(** Logarithmically spaced {!sweep}. *)

type bode_summary = {
  dc_gain_db : float;        (** magnitude at the lowest swept frequency *)
  unity_gain_freq : float option;  (** Hz; None when |H| never crosses 1 *)
  phase_margin_deg : float option; (** 180° + phase at unity gain *)
  bandwidth_3db : float option;    (** Hz; first -3 dB point *)
}

val bode_summary : sweep_point array -> bode_summary
(** Classical amplifier figures extracted from a (log-spaced) sweep.
    @raise Invalid_argument on an empty sweep. *)
