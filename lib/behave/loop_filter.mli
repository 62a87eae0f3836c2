(** Passive second-order charge-pump loop filter: series R1–C1 branch in
    parallel with C2 (the paper's system-level designables C1, C2, R1).

    Time-domain stepping uses backward Euler on the two-state ODE;
    {!impedance} feeds the s-domain loop analysis. *)

type params = {
  c1 : float;  (** F *)
  c2 : float;  (** F *)
  r1 : float;  (** ohm *)
}

val validate : params -> unit
(** @raise Invalid_argument on non-positive component values. *)

type state = {
  mutable vctl : float;  (** control-node voltage (across C2) *)
  mutable vc1 : float;   (** voltage across C1 *)
}
(** All floats, so {!advance} updates it without allocating. *)

val initial : float -> state
(** Both capacitors precharged to the given voltage. *)

type coeffs
(** The backward-Euler matrix for one [(params, dt)] pair. *)

val coeffs : params -> dt:float -> coeffs

val injection : params -> i_in:float -> dt:float -> float
(** [dt·i_in/C2]: the control-node voltage step that current [i_in]
    makes over [dt]. *)

val advance : coeffs -> state -> inj:float -> unit
(** One backward-Euler step in place, with [inj] from {!injection}.  A
    fixed-step simulator computes {!coeffs} and its few injections once
    and then steps without allocating. *)

val step : params -> state -> i_in:float -> dt:float -> state
(** Advance by [dt] with charge-pump current [i_in] flowing into the
    control node; a fresh state, computed by {!advance}. *)

val impedance : params -> float -> Complex.t
(** Filter impedance Z(jω) at angular frequency [w] (rad/s). *)

val pole_zero : params -> float * float * float
(** [(w_zero, w_pole3, c_total)]: the stabilising zero 1/(R1 C1), the
    third pole 1/(R1 C1C2/(C1+C2)) and the total capacitance. *)
