(** Smooth square-law MOSFET model with analytic derivatives.

    This is the repository's substitute for the foundry BSim3v3 models the
    paper simulates with (see DESIGN.md §2).  It blends an EKV-style
    softplus overdrive (smooth weak/strong-inversion transition — keeps
    Newton iterations differentiable), mobility reduction, a C¹
    triode/saturation transition and channel-length modulation whose
    strength scales inversely with channel length.  Gate/junction
    capacitances are bias-independent, which keeps transient stamps linear.

    This module holds the model's parameters and its bias-independent
    quantities.  The device equations themselves live in
    {!Repro_spice.Mna}, the only place that evaluates them: the Newton
    iteration expands them in place there, and [Mna.mos_eval] evaluates
    one device.

    Sign convention: the equations work in source-referenced NMOS
    polarity ([vgs], [vds] both normally positive); the MNA stamping
    code flips polarities for PMOS devices and swaps drain/source when
    [vds < 0]. *)

type polarity = Nmos | Pmos

type model = {
  name : string;
  polarity : polarity;
  vth0 : float;        (** zero-bias threshold magnitude, V *)
  kp : float;          (** transconductance factor µCox, A/V² *)
  theta : float;       (** mobility-reduction coefficient, 1/V *)
  n_slope : float;     (** subthreshold slope factor *)
  clm : float;         (** channel-length modulation: λ = clm / L, m/V *)
  cox : float;         (** gate-oxide capacitance per area, F/m² *)
  cov : float;         (** overlap capacitance per width, F/m *)
  cj : float;          (** junction capacitance per width, F/m *)
  avt : float;         (** Pelgrom Vth-mismatch coefficient, V·m *)
  akp : float;         (** Pelgrom relative-Kp mismatch coefficient, m *)
}

val nmos_012 : model
(** Calibrated NMOS for the 0.12 µm-like process used throughout. *)

val pmos_012 : model
(** Matching PMOS. *)

type eval_result = {
  ids : float;  (** drain current (source-referenced polarity), A *)
  gm : float;   (** ∂ids/∂vgs, S *)
  gds : float;  (** ∂ids/∂vds, S *)
}
(** One device's current and small-signal derivatives at a bias, as
    [Repro_spice.Mna.mos_eval] returns them. *)

type caps = {
  cgs : float;
  cgd : float;
  cdb : float;
  csb : float;
}

val capacitances : model -> w:float -> l:float -> caps
(** Bias-independent device capacitances used by the transient stamps. *)

val sigma_vth : model -> w:float -> l:float -> float
(** Pelgrom mismatch: standard deviation of the per-device Vth shift. *)

val sigma_kp_rel : model -> w:float -> l:float -> float
(** Pelgrom mismatch: relative standard deviation of the per-device Kp. *)
