(** Variation modelling (§3.3, §4.3): Monte-Carlo analysis of every
    Pareto-optimal design, producing per-performance relative spreads —
    the ∆ columns of the paper's Table 1. *)

type entry = {
  design : Vco_problem.sized_design;
  d_kvco : float;  (** relative spread (σ/µ) of kvco *)
  d_jvco : float;
  d_ivco : float;
  d_fmin : float;
  d_fmax : float;
  mc_samples : int;
  mc_failures : int;
}

val pp_entry : Format.formatter -> entry -> unit

type options = {
  samples : int;                           (** paper: 100 per point *)
  process : Repro_circuit.Process.spec;
  measure : Repro_spice.Vco_measure.options;
}

val default_options : options

val analyse_design :
  ?options:options ->
  ?builder:(Repro_circuit.Topologies.vco_params -> Repro_circuit.Netlist.t) ->
  ?checkpoint:Repro_engine.Checkpoint.t * string ->
  prng:Repro_util.Prng.t ->
  Vco_problem.sized_design ->
  entry
(** MC-characterise one design.  [builder] swaps the built-in ring-VCO
    construction for a custom netlist factory (an elaborated [.sp]
    template); the default is the paper's
    {!Repro_circuit.Topologies.ring_vco}.  Failed trials (non-oscillating corners)
    are counted but excluded from the spread statistics; when fewer than
    3 trials survive the spreads fall back to 0.  [checkpoint:(ck, key)]
    persists/restores the completed Monte-Carlo sample prefix under
    [key] (see {!Repro_spice.Monte_carlo.run}). *)

val analyse_front :
  ?options:options ->
  ?builder:(Repro_circuit.Topologies.vco_params -> Repro_circuit.Netlist.t) ->
  ?progress:(int -> int -> unit) ->
  ?already:entry array ->
  ?on_entry:(int -> entry -> unit) ->
  ?checkpoint:Repro_engine.Checkpoint.t ->
  prng:Repro_util.Prng.t ->
  Vco_problem.sized_design array ->
  entry array
(** The paper's loop over the whole Pareto front; [progress i n] is
    called before analysing design [i] of [n].

    Resume support: [already] supplies the completed entry prefix
    (restored designs still consume their PRNG splits, so the remaining
    designs see the same streams as an uninterrupted run), [on_entry] is
    called after each {e freshly} analysed design (the caller persists
    the growing prefix there), and [checkpoint] threads per-design
    Monte-Carlo sample checkpoints under keys ["mc.<i>"]. *)

val row_of_entry : entry -> float array
(** Flat 19-float snapshot encoding; round-trips losslessly. *)

val entry_of_row : float array -> entry option
