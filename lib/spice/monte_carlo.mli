(** Monte-Carlo analysis over process variation — the paper's §3.3 /
    §4.3 step: run N perturbed-netlist trials of a measurement and report
    per-performance spreads. *)

type 'a trial = Repro_circuit.Netlist.t -> ('a, string) result
(** A measurement over one (already perturbed) netlist instance. *)

type 'a run_result = {
  samples : 'a array;      (** successful trials *)
  failures : int;          (** trials whose measurement failed *)
  seeds_used : int;        (** total trials attempted *)
}

val run :
  ?spec:Repro_circuit.Process.spec ->
  ?pool:Repro_engine.Pool.t ->
  ?warn_threshold:float ->
  n:int ->
  prng:Repro_util.Prng.t ->
  Repro_circuit.Netlist.t ->
  'a trial ->
  'a run_result
(** [run ~n ~prng net trial] draws [n] process instances of [net] (each
    from an independent PRNG split) and collects the successful
    measurements.

    Trials execute in parallel over [pool] (default: the shared engine
    pool, sized by [-j] / [HIEROPT_JOBS]); streams are pre-split per
    trial so the result is bit-identical for any worker count.  Trial
    and failure counts are reported to {!Repro_engine.Telemetry}
    ([mc.trials] / [mc.failures] / [mc.wall]), and when the failure
    fraction exceeds [warn_threshold] (default 0.5) a loud
    [mc.degenerate_runs] warning is emitted so a degenerate corner
    cannot masquerade as a valid spread. *)

type spread = {
  nominal : float;      (** measurement of the unperturbed netlist *)
  mc_mean : float;
  mc_std : float;
  rel_spread : float;   (** mc_std / |mc_mean| — the paper's ∆ columns *)
  n_samples : int;
}

val spread_of_samples : nominal:float -> float array -> spread
(** @raise Invalid_argument on an empty sample array. *)

val pp_spread : Format.formatter -> spread -> unit
