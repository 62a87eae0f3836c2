(** The shared failure type of the solver entry points
    ({!Dcop.solve_result}, {!Transient.run_result}), which return it
    instead of raising.

    Carries structured context (which continuation stage gave up, the
    simulation time at which the step size underflowed) instead of a
    pre-formatted message, so callers can branch on the failure mode and
    format it once, at the reporting boundary. *)

type t =
  | No_convergence of { stage : string; detail : string }
      (** Newton failed to converge; [stage] names the analysis
          ("dcop", "transient") and [detail] the strategy trail. *)
  | Step_underflow of { time : float }
      (** Transient step halving hit [dt_min] at simulation time
          [time]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
