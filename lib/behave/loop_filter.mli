(** Passive second-order charge-pump loop filter: series R1–C1 branch in
    parallel with C2 (the paper's system-level designables C1, C2, R1).

    {!Pll} steps the two-state ODE by backward Euler
    ({!Pll.filter_vctl}, {!Pll.filter_vc1}); {!impedance} feeds the
    s-domain loop analysis. *)

type params = {
  c1 : float;  (** F *)
  c2 : float;  (** F *)
  r1 : float;  (** ohm *)
}

val validate : params -> unit
(** @raise Invalid_argument on non-positive component values. *)

val injection : params -> i_in:float -> dt:float -> float
(** [dt·i_in/C2]: the control-node voltage step that current [i_in]
    makes over [dt], the [inj] of {!Pll.filter_vctl}. *)

val impedance : params -> float -> Complex.t
(** Filter impedance Z(jω) at angular frequency [w] (rad/s). *)

val pole_zero : params -> float * float * float
(** [(w_zero, w_pole3, c_total)]: the stabilising zero 1/(R1 C1), the
    third pole 1/(R1 C1C2/(C1+C2)) and the total capacitance. *)
