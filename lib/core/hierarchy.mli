(** The full hierarchical flow of the paper's Figure 4:

    1. circuit-level NSGA-II over the VCO sizing (→ Figure 7 front);
    2. Monte-Carlo variation modelling of every front design (→ Table 1);
    3. combined performance+variation table model (→ Listings 1/2);
    4. system-level NSGA-II over the PLL using the model (→ Table 2);
    5. design selection, bottom-up verification (parameter recovery +
       transistor-level re-simulation) and yield confirmation (→ §4.5 /
       Figure 8).

    [run] executes the whole flow deterministically from a seed;
    [ablation] re-runs step 4–5 with the variation model ignored during
    optimisation (the method of the paper's reference [10]) for the
    improvement comparison.

    {2 Run lifecycle}

    A re-run in the same [model_dir] is the way to resume.  Every
    finished unit of work — each GA evaluation at both levels and each
    variation-model entry — is memoised in [model_dir ^ "/eval.cache"],
    which the flow writes atomically (tmp file + rename) after every GA
    generation, every Monte-Carlo design, and when it stops or is
    interrupted.  Running the same command again replays the finished
    work from the cache without simulating and computes only the rest,
    so an interrupted-then-re-run flow produces byte-identical
    artefacts to an uninterrupted one, and a cache that cannot be read
    warns [cache.cold_start] and starts cold. *)

type scale = {
  vco_population : int;
  vco_generations : int;
  mc_samples : int;       (** per Pareto point *)
  front_max : int;        (** Pareto points kept for MC (cost bound) *)
  pll_population : int;
  pll_generations : int;
  yield_samples : int;
}

val paper_scale : scale
(** The paper's §4 settings: 100×30 circuit GA, 100 MC samples/point,
    full front, 60×20 system GA, 500 yield samples. *)

val bench_scale : scale
(** Reduced workload for the few-minute bench harness: 24×10 circuit GA,
    20 MC samples over ≤ 10 points, 24×8 system GA, 200 yield samples.
    Every code path is identical; only loop counts differ. *)

val tiny_scale : scale
(** Smoke-test workload (seconds): 12×4 circuit GA, 4 MC samples over
    ≤ 4 points, 12×3 system GA, 30 yield samples.  Pair with
    {!tiny_spec} — the default spec's band is too wide for a GA this
    small to cover reliably. *)

val tiny_spec : Spec.t
(** A narrowed 200–280 MHz band spec sized for {!tiny_scale}; used by
    the resume tests and the CI interrupt-resume smoke job. *)

val scale_of_env : unit -> scale
(** [paper_scale] when {!Repro_engine.Config.full} reports that
    HIEROPT_FULL is set, else [bench_scale]. *)

(** {2 Pluggable circuit front end}

    By default the flow sizes the built-in
    {!Repro_circuit.Topologies.ring_vco}.  A [circuit] record swaps in
    any netlist factory over the same 7-float sizing vector — in
    practice an elaborated [.sp] template from [repro_netlist] — while
    keeping every downstream phase (measurement, Monte-Carlo,
    verification) unchanged. *)

type circuit = {
  tag : string;
      (** content fingerprint of the template; the only part of the
          record entering the eval-cache salt and the run fingerprint
          (the closure is never hashed).  Must be non-empty. *)
  bounds : (float * float) array;
      (** design box of the 7 ranged parameters, declaration order *)
  build : Repro_circuit.Topologies.vco_params -> Repro_circuit.Netlist.t;
      (** sizing vector to measurable netlist; must be pure and
          deterministic *)
}

type config = {
  seed : int;
  scale : scale;
  spec : Spec.t;
  measure : Repro_spice.Vco_measure.options;
  process : Repro_circuit.Process.spec;
  use_variation : bool;
  model_dir : string option;
      (** where to save the .tbl model files and the eval cache *)
  circuit : circuit option;
      (** custom circuit front end; [None] is the built-in ring VCO *)
  optimiser : string;
      (** portfolio member running both GA levels: one of
          {!Repro_moo.Optimiser.names}.  ["nsga2"] (the paper's) runs
          unscreened; ["de"] always runs behind the surrogate pre-screen
          ({!Repro_moo.Surrogate}), which skips exact evaluation of
          candidates predicted dominated by the current front.  The
          name and whether it screens are salted into cache keys. *)
}

val default_config : ?scale:scale -> unit -> config

val make_config :
  ?seed:int ->
  ?scale:scale ->
  ?spec:Spec.t ->
  ?measure:Repro_spice.Vco_measure.options ->
  ?process:Repro_circuit.Process.spec ->
  ?use_variation:bool ->
  ?model_dir:string ->
  ?circuit:circuit ->
  ?optimiser:string ->
  unit ->
  config
(** Validating constructor — prefer this over record literals.
    @raise Invalid_argument when a count is non-positive, a population
    is odd or < 4, [front_max < 2], the spec is inconsistent (see
    {!Spec.validate}), [circuit] has an empty tag, the wrong number of
    bounds, or an empty bound, or [optimiser] is not a registered
    portfolio member. *)

exception Degenerate_front of { stage : string; found : int; minimum : int }
(** The named Pareto front has too few designs to build a model from. *)

(** {2 Observability}

    When [model_dir] is set, a run appends structured events to
    [model_dir/run.journal] ({!Repro_obs.Journal}): run start/finish
    with the config fingerprint, phase boundaries with durations,
    per-generation GA convergence entries (front size, spread and the
    exact {!Repro_moo.Hypervolume} indicator against the fixed
    reference points below) and every {!Repro_engine.Telemetry.warn}.  Phases, GA generations, evaluation
    batches and MC batches additionally emit {!Repro_obs.Trace} spans
    when tracing is enabled (the CLI's [--trace]).  All of it is
    zero-perturbation: artefacts are byte-identical with observability
    on or off. *)

val circuit_hv_reference : float array
(** Fixed reference point for the circuit-level hypervolume, over the
    paper's three headline objectives (jitter, current, -gain). *)

val circuit_hv_dims : int array
(** The objective indices of the VCO problem those references cover. *)

val system_hv_reference : float array
(** Fixed reference point for the system-level (PLL) hypervolume. *)

type phase = Circuit_ga | Variation | Model | System_ga

val phase_name : phase -> string
(** ["circuit-ga"], ["variation"], ["model"], ["system-ga"]. *)

val phase_of_string : string -> phase option

type verification = {
  requested : Repro_spice.Vco_measure.performance;
      (** the performance point handed down from system level *)
  mapped : Repro_circuit.Topologies.vco_params;
      (** transistor dimensions recovered through the p1..p7 tables *)
  measured : (Repro_spice.Vco_measure.performance, string) result;
      (** transistor-level re-simulation of the mapped sizing *)
}

type result = {
  front : Vco_problem.sized_design array;      (** step 1 *)
  entries : Variation_model.entry array;       (** step 2 *)
  model : Perf_table.t;                        (** step 3 *)
  rows : Pll_problem.table2_row array;         (** step 4 *)
  selected : Pll_problem.table2_row option;    (** step 5 *)
  verification : verification option;
  yield : Repro_util.Stats.yield_estimate option;
  pll_config : Pll_problem.config;
}

val run :
  ?progress:(string -> unit) ->
  ?interrupt_after:phase ->
  config ->
  result
(** Evaluations run through the {!Repro_engine} subsystem: NSGA-II
    generations, Monte-Carlo trials and yield samples are spread over
    the shared domain pool ([-j] / HIEROPT_JOBS) and memoised in a
    content-addressed cache; when [model_dir] is set the cache is
    loaded from / saved to [model_dir ^ "/eval.cache"] next to the
    [.tbl] artefacts (see "Run lifecycle" above).  Results are
    bit-identical for any worker count and with a cold or warm cache.
    Engine telemetry is emitted through [progress].

    [interrupt_after] is a testing hook: raise
    {!Repro_engine.Checkpoint.Interrupted} once the given phase
    completes, exactly as an external interrupt at that boundary would.
    The same exception is raised after the GA generation or
    Monte-Carlo design in progress when
    {!Repro_engine.Checkpoint.request_interrupt} fires (e.g. from the
    CLI's SIGINT handler) — in both cases the eval cache is saved
    before re-raising, so running again resumes.
    @raise Degenerate_front when the circuit-level front has fewer than
    2 designs (no oscillating design found — should not happen at the
    default scales). *)

val run_system_level :
  ?progress:(string -> unit) ->
  ?pll_query:Pll_problem.model_query ->
  config ->
  model:Perf_table.t ->
  result
(** Steps 4–5 only, over an existing model — used by the ablation bench
    to compare variation-aware vs nominal-only optimisation without
    re-running the expensive circuit level.  System-level evaluations
    are cached under a salt that covers the config {e and} a digest of
    the model, in both this function and {!run}, so a model dir that
    held another model's evaluations never serves them.

    [pll_query] routes every table-model interpolation through an
    external oracle (e.g. [Repro_serve.Remote] against a running model
    server) instead of [model]; a faithful oracle yields bit-identical
    results, so it is excluded from the cache salt just like the
    worker count. *)

val verify_design :
  config -> model:Perf_table.t -> Pll_problem.table2_row -> verification
(** Bottom-up verification of a chosen row (re-simulated through the
    config's circuit front end). *)

val circuit_problem : config -> Repro_moo.Problem.t
(** The circuit-level optimisation problem the flow runs: the built-in
    {!Vco_problem.problem} with [circuit = None], otherwise the same
    problem with the circuit's builder and bounds. *)

val circuit_netlist :
  config ->
  Repro_circuit.Topologies.vco_params ->
  Repro_circuit.Netlist.t
(** The netlist the flow measures at a sizing: built-in ring VCO (at
    the config's measurement stage count / supplies) or the custom
    circuit's build. *)
