(** Charge pump: converts the PFD state into a filter current, with
    optional up/down mismatch and a constant leakage drain. *)

type t = {
  i_up : float;      (** A *)
  i_down : float;    (** A *)
  leakage : float;   (** A, constant drain from the control node *)
}

val ideal : float -> t
(** [ideal icp] — matched pump currents, no leakage. *)

val with_mismatch : icp:float -> mismatch:float -> t
(** [with_mismatch ~icp ~mismatch] skews up/down by ±mismatch/2
    (fractional). *)

val current : t -> Pfd.state -> float
(** Current delivered into the loop filter for a PFD state. *)

val average_current : t -> duty:float -> float
(** Supply current drawn at a given activity duty cycle (used in the
    PLL current budget). *)
