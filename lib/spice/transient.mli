(** Transient analysis: trapezoidal integration (backward-Euler start)
    with Newton per step and step-halving on non-convergence. *)

type options = {
  t_stop : float;
  dt : float;             (** nominal step *)
  dt_min : float;
      (** below this a failing step ends the run with
          {!Solver_error.Step_underflow} *)
  ic : (string * float) list;
      (** node-voltage overrides applied on top of the DC solution —
          the oscillator start-up "kick" *)
  skip_dcop : bool;       (** start from all-zero state instead of DC *)
  max_newton : int;
  noise : Repro_util.Prng.t option;
      (** transient-noise mode: inject per-device thermal channel noise
          currents each step ({!Mna.channel_noise_stamps}), white up to
          the step Nyquist rate 1/(2 dt).  Used to cross-validate the
          analytic jitter estimator against a direct noisy simulation. *)
}

val default_options : t_stop:float -> dt:float -> options

val run :
  ?workspace:Mna.workspace ->
  Mna.compiled ->
  options ->
  observe:(float -> Repro_linalg.Vec.t -> unit) ->
  (int, Solver_error.t) Stdlib.result
(** The stepping loop.  It calls [observe time x] once at t = 0, after
    the [ic] kick, and once after every accepted step.  [x] holds the
    unknowns: node voltages in node-id order, then the voltage sources'
    branch currents ({!Mna.node_index}, {!Mna.branch_index}).  It is
    the loop's live buffer, so an observer reads it and returns: it
    must not write it or keep it past the call.  Returns the Newton
    iterations the run took.  DC-start non-convergence and step-size
    underflow are returned as structured {!Solver_error.t} values, and
    the [tran.*] counters are published once per run either way.
    [workspace] defaults to {!Mna.domain_workspace} and is shared
    between the DC start and the stepping loop (a pure performance hint;
    results are identical either way).
    @raise Invalid_argument on non-positive [t_stop]/[dt] or an [ic]
    override of ground (programming errors, not solver failures). *)

type result
(** A recorded transient: every time {!run} passed its observer, with a
    copy of the unknowns. *)

val run_result :
  ?solver:Repro_engine.Config.solver_mode ->
  ?workspace:Mna.workspace ->
  Mna.compiled ->
  options ->
  (result, Solver_error.t) Stdlib.result
(** {!run} with an observer that records every step, for
    [hieropt simulate], the examples and the tests; the ring-VCO
    characterisation observes the steps instead ({!Vco_measure}).
    [solver] is ignored: it is kept only because [perfbench/main.ml]
    passes it, and goes together with
    {!Repro_engine.Config.solver_mode}. *)

val times : result -> float array

val node_wave : result -> string -> Waveform.t
(** Recorded voltage waveform of a named node.
    @raise Not_found for unknown names. *)

val source_current_wave : result -> string -> Waveform.t
(** Branch-current waveform of a named voltage source. *)

val total_newton_iterations : result -> int
