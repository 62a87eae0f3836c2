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
  prng:Repro_util.Prng.t ->
  Vco_problem.sized_design ->
  entry
(** MC-characterise one design.  [builder] swaps the built-in ring-VCO
    construction for a custom netlist factory (an elaborated [.sp]
    template); the default is the paper's
    {!Repro_circuit.Topologies.ring_vco}.  Failed trials (non-oscillating corners)
    are counted but excluded from the spread statistics; when fewer than
    3 trials survive the spreads fall back to 0. *)

val analyse_front :
  ?options:options ->
  ?builder:(Repro_circuit.Topologies.vco_params -> Repro_circuit.Netlist.t) ->
  ?progress:(int -> int -> unit) ->
  ?cache:Repro_engine.Cache.t * string ->
  ?on_entry:(int -> entry -> unit) ->
  prng:Repro_util.Prng.t ->
  Vco_problem.sized_design array ->
  entry array
(** The paper's loop over the whole Pareto front; [progress i n] is
    called before analysing design [i] of [n].

    [cache:(c, salt)] memoises every finished entry in [c], keyed by
    the design's front index and sizing, [options.samples] and [salt];
    [salt] must fingerprint everything else an entry depends on (the
    seed, the process and measurement set-up, the circuit).  A design
    whose entry is cached is not analysed again; a cached value of the
    wrong length is a miss.  Every design consumes its PRNG split in
    index order, cached or not, so the result is bit-identical to an
    uncached run.  [on_entry i e] is called after each {e freshly}
    analysed design, once its entry is in the cache (the flow saves the
    cache there). *)
