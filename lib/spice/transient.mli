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

type result

val run_result :
  ?solver:Repro_engine.Config.solver_mode ->
  ?workspace:Mna.workspace ->
  Mna.compiled ->
  options ->
  (result, Solver_error.t) Stdlib.result
(** Run the transient analysis.  DC-start non-convergence and step-size
    underflow are returned as structured {!Solver_error.t} values.
    [workspace] defaults to {!Mna.domain_workspace} and is shared
    between the DC start and the stepping loop (a pure performance hint;
    results are identical either way).  [solver] is
    ignored: it is kept only because [perfbench/main.ml] passes it, and
    goes together with {!Repro_engine.Config.solver_mode}.
    @raise Invalid_argument on non-positive [t_stop]/[dt] or an [ic]
    override of ground (programming errors, not solver failures). *)

val times : result -> float array

val node_wave : result -> string -> Waveform.t
(** Recorded voltage waveform of a named node.
    @raise Not_found for unknown names. *)

val source_current_wave : result -> string -> Waveform.t
(** Branch-current waveform of a named voltage source. *)

val total_newton_iterations : result -> int
