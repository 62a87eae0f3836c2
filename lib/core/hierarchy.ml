module V = Repro_spice.Vco_measure
module Nsga2 = Repro_moo.Nsga2
module Prng = Repro_util.Prng
module E = Repro_engine
module Obs = Repro_obs
module Json = Repro_util.Json

type scale = {
  vco_population : int;
  vco_generations : int;
  mc_samples : int;
  front_max : int;
  pll_population : int;
  pll_generations : int;
  yield_samples : int;
}

let paper_scale =
  {
    vco_population = 100;
    vco_generations = 30;
    mc_samples = 100;
    front_max = max_int;
    pll_population = 60;
    pll_generations = 20;
    yield_samples = 500;
  }

let bench_scale =
  {
    vco_population = 24;
    vco_generations = 10;
    mc_samples = 20;
    front_max = 10;
    pll_population = 24;
    pll_generations = 8;
    yield_samples = 200;
  }

let tiny_scale =
  {
    vco_population = 12;
    vco_generations = 4;
    mc_samples = 4;
    front_max = 4;
    pll_population = 12;
    pll_generations = 3;
    yield_samples = 30;
  }

(* a narrowed band the tiny GA can cover reliably — the smoke-test spec
   used by CI and the resume tests *)
let tiny_spec =
  {
    Spec.default with
    Spec.f_out_low = 200e6;
    f_out_high = 280e6;
    f_target = 250e6;
    fref = 50e6;
    n_div = 5;
  }

let scale_of_env () = if E.Config.full () then paper_scale else bench_scale

(* the paper's optimiser, and the one alternative the flow offers *)
type optimiser = Nsga2 | De

let optimisers = [ Nsga2; De ]
let optimiser_name = function Nsga2 -> "nsga2" | De -> "de"

(* each algorithm at its library defaults except the two counts the
   scales set *)
let optimise optimiser ~population ~generations ?evaluator ?on_generation
    problem prng =
  match optimiser with
  | Nsga2 ->
    Nsga2.optimise
      ~options:{ Nsga2.default_options with population; generations }
      ?evaluator ?on_generation problem prng
  | De ->
    Repro_moo.De.optimise
      ~options:{ Repro_moo.De.default_options with population; generations }
      ?evaluator ?on_generation problem prng

(* a pluggable circuit front end: how to turn the 7-float sizing vector
   into a measurable netlist.  [tag] is the template's content
   fingerprint — the only part of the record that may enter cache salts
   and run fingerprints (the closure must never be hashed).  A
   template equivalent to the built-in ring VCO is canonicalised to
   [None] by the CLI so its artefacts stay byte-identical. *)
type circuit = {
  tag : string;
  bounds : (float * float) array;
  build : Repro_circuit.Topologies.vco_params -> Repro_circuit.Netlist.t;
}

type config = {
  seed : int;
  scale : scale;
  spec : Spec.t;
  measure : V.options;
  process : Repro_circuit.Process.spec;
  use_variation : bool;
  model_dir : string option;
  circuit : circuit option;
  optimiser : optimiser;
}

let validate_scale optimiser s =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let even_pop name v =
    if v < 4 || v mod 2 <> 0 then
      fail "Hierarchy.make_config: %s must be even and >= 4 (got %d)" name v;
    (* DE/rand/1 needs the target plus three distinct donors *)
    if optimiser = De && v < 5 then
      fail "Hierarchy.make_config: %s must be >= 5 for de (got %d)" name v
  in
  let positive name v =
    if v <= 0 then fail "Hierarchy.make_config: %s must be positive (got %d)" name v
  in
  even_pop "vco_population" s.vco_population;
  even_pop "pll_population" s.pll_population;
  positive "vco_generations" s.vco_generations;
  positive "pll_generations" s.pll_generations;
  positive "mc_samples" s.mc_samples;
  positive "yield_samples" s.yield_samples;
  if s.front_max < 2 then
    fail "Hierarchy.make_config: front_max must be >= 2 (got %d)" s.front_max

let validate_circuit c =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if c.tag = "" then fail "Hierarchy.make_config: circuit tag must be non-empty";
  let n = Array.length c.bounds in
  if n <> Array.length Repro_circuit.Topologies.vco_param_names then
    fail "Hierarchy.make_config: circuit needs %d parameter bounds (got %d)"
      (Array.length Repro_circuit.Topologies.vco_param_names)
      n;
  Array.iteri
    (fun i (lo, hi) ->
      if not (lo < hi) then
        fail "Hierarchy.make_config: circuit bound %d is empty [%g, %g]" i lo
          hi)
    c.bounds

let make_config ?(seed = 2009) ?(scale = bench_scale) ?(spec = Spec.default)
    ?(measure = V.default_options) ?(process = Repro_circuit.Process.default)
    ?(use_variation = true) ?model_dir ?circuit ?(optimiser = Nsga2) () =
  validate_scale optimiser scale;
  Spec.validate spec;
  Option.iter validate_circuit circuit;
  { seed; scale; spec; measure; process; use_variation; model_dir; circuit;
    optimiser }

exception Degenerate_front of { stage : string; found : int; minimum : int }

let () =
  Printexc.register_printer (function
    | Degenerate_front { stage; found; minimum } ->
      Some
        (Printf.sprintf
           "Hierarchy: %s Pareto front is degenerate (%d designs, need >= %d)"
           stage found minimum)
    | _ -> None)

type phase = Circuit_ga | Variation | Model | System_ga

let phase_name = function
  | Circuit_ga -> "circuit-ga"
  | Variation -> "variation"
  | Model -> "model"
  | System_ga -> "system-ga"

type verification = {
  requested : V.performance;
  mapped : Repro_circuit.Topologies.vco_params;
  measured : (V.performance, string) result;
}

type result = {
  front : Vco_problem.sized_design array;
  entries : Variation_model.entry array;
  model : Perf_table.t;
  rows : Pll_problem.table2_row array;
  selected : Pll_problem.table2_row option;
  verification : verification option;
  yield : Repro_util.Stats.yield_estimate option;
  pll_config : Pll_problem.config;
}

let say progress fmt = Printf.ksprintf (fun s -> progress s) fmt

(* ---- observability ------------------------------------------------ *)

(* Fixed hypervolume reference points: generous per-objective upper
   bounds that every plausible front dominates, kept constant so the
   indicator is comparable across generations, runs and PRs.  The
   circuit level tracks the paper's three headline objectives (jitter,
   current, -gain — Figure 7); the system level all three PLL
   objectives (lock time, jitter sum, current). *)
let circuit_hv_reference = [| 1e-9; 0.1; 0.0 |]
let circuit_hv_dims = [| 0; 1; 2 |]
let system_hv_reference = [| 2e-6; 5e-12; 20e-3 |]

(* phase bracket: journal start/finish events and a trace span around
   the existing telemetry timer, preserving the "phase.<name>" keys *)
let timed_phase name f =
  Obs.Journal.record_phase_start name;
  let t0 = Unix.gettimeofday () in
  Obs.Trace.span ("phase." ^ name) @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.record_phase_finish name
        ~seconds:(Unix.gettimeofday () -. t0))
    (fun () -> E.Telemetry.time ("phase." ^ name) f)

(* The journal is diagnostic output riding alongside the model
   artefacts, so it lives in [model_dir] and an IO failure only costs
   the journal, never the run. *)
let open_journal ~fingerprint cfg =
  match cfg.model_dir with
  | None -> None
  | Some dir -> (
    try
      let j = Obs.Journal.create ~dir () in
      Obs.Journal.set_current j;
      Obs.Journal.run_start j ~fingerprint
        [
          ("seed", Json.Num (float_of_int cfg.seed));
          ("jobs", Json.Num (float_of_int (E.Config.jobs ())));
        ];
      Some j
    with Sys_error _ | Unix.Unix_error _ -> None)

(* Telemetry counters whose per-run deltas [close_journal] records on
   [run.finish], as (journal field, counter): the avoided / paid /
   cached / run split of the evaluations, which [report] renders as one
   table, then what the transistor-level and behavioural simulators
   paid for them. *)
let journal_counters =
  [
    ("eval_avoided", "eval.avoided");
    ("eval_paid", "eval.paid");
    ("eval_cache_hits", "eval.cache_hits");
    ("eval_runs", "eval.runs");
    ("vco_characterisations", "vco.characterisations");
    ("vco_extensions", "vco.extensions");
    ("vco_extensions_failed", "vco.extensions_failed");
    ("tran_runs", "tran.runs");
    ("tran_steps", "tran.steps");
    ("tran_halvings", "tran.halvings");
    ("tran_newton", "tran.newton");
    ("pll_sims", "pll.sims");
    ("pll_steps", "pll.steps");
  ]

(* ... and the timer that gives the transistor-level layer's unit cost
   beside its counts: the transients' wall seconds, summed over the
   domains that ran them *)
let journal_timers = [ ("tran_seconds", "tran.seconds") ]

(* ... and what the run held in memory, from [Gc.quick_stat], which
   sums over every domain: the words promoted and allocated in the major
   heap and the major collections as run deltas, and the process's peak
   major heap *)
let gc_fields (g0 : Gc.stat) =
  let g = Gc.quick_stat () in
  let num x = Json.Num x and int n = Json.Num (float_of_int n) in
  [
    ("gc_promoted_words", num (g.promoted_words -. g0.promoted_words));
    ("gc_major_words", num (g.major_words -. g0.major_words));
    ("gc_major_collections", int (g.major_collections - g0.major_collections));
    ("gc_top_heap_words", int g.top_heap_words);
  ]

(* the baseline taken at run start *)
let counter_baseline () =
  ( List.map (fun (_, name) -> E.Telemetry.counter name) journal_counters,
    List.map (fun (_, name) -> E.Telemetry.timer name) journal_timers,
    Gc.quick_stat () )

let close_journal t0 (c0, s0, g0) = function
  | None -> ()
  | Some j ->
    Obs.Journal.run_finish j
      ~seconds:(Unix.gettimeofday () -. t0)
      (List.map2
         (fun (field, name) n0 ->
           (field, Json.Num (float_of_int (E.Telemetry.counter name - n0))))
         journal_counters c0
      @ List.map2
          (fun (field, name) s ->
            (field, Json.Num (E.Telemetry.timer name -. s)))
          journal_timers s0
      @ gc_fields g0);
    Obs.Journal.clear_current ();
    Obs.Journal.close j

(* ---- evaluation-engine wiring ------------------------------------ *)

let cache_path cfg =
  Option.map (fun dir -> Filename.concat dir "eval.cache") cfg.model_dir

(* The cache persists across runs, so keys must change whenever the
   ambient configuration captured by the objective closures changes. *)
(* only the circuit's content tag goes into hashes: the record holds a
   closure, and closure hashing is not stable across builds *)
let circuit_tag cfg =
  match cfg.circuit with None -> "" | Some c -> c.tag

(* DE always runs behind the surrogate pre-screen and NSGA-II never
   does: screened DE is the only pairing that beat plain NSGA-II's
   hypervolume per wall second on the circuit problem (README,
   "Optimiser portfolio") *)
let screened cfg = cfg.optimiser = De

let config_salt cfg =
  Printf.sprintf "%08x"
    (Hashtbl.hash_param 256 256
       ( cfg.spec,
         cfg.measure,
         cfg.process,
         cfg.use_variation,
         circuit_tag cfg,
         (* optimiser choice and screening are salted so a screened
            run's cache can never alias an exhaustive run's; the name,
            not the constructor, keeps the salt of earlier caches *)
         (optimiser_name cfg.optimiser, screened cfg) ))

(* A variation-model entry also depends on the seed, which fixes the
   Monte-Carlo streams; the front index, sample count and sizing are in
   the entry's key ({!Variation_model.analyse_front}). *)
let variation_salt cfg = Printf.sprintf "%s-%d" (config_salt cfg) cfg.seed

(* The system level evaluates every candidate through the table model,
   so its evaluations belong to one model: two models saved in turn to
   one model dir must never share them.  The digest covers every entry
   bit for bit ([Hashtbl.hash] would stop after its first 1000
   values). *)
let model_hash model =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (Perf_table.entries model) [ Marshal.No_sharing ]))

let system_salt cfg model = config_salt cfg ^ "-" ^ model_hash model

(* A cache that exists but cannot be read throws away finished work, so
   it is reported; a missing one is just a cold start. *)
let load_cache cfg =
  match cache_path cfg with
  | None -> E.Cache.create ()
  | Some path -> (
    match E.Cache.load_if_exists path with
    | Some cache -> cache
    | None ->
      if Sys.file_exists path then
        E.Telemetry.warn ~key:"cache.cold_start"
          "cannot read eval cache %s — starting cold" path;
      E.Cache.create ())

(* The cache holds every finished unit of work, so saving it is what
   makes a run resumable; [Cache.save] writes a tmp file and renames it,
   so the file on disk is whole whenever the process dies. *)
let save_cache ?progress cfg cache =
  match cache_path cfg with
  | None -> ()
  | Some path -> (
    try
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      E.Cache.save cache path;
      Option.iter
        (fun progress ->
          say progress "engine: %s saved to %s" (E.Cache.stats_line cache)
            path)
        progress
    with Sys_error _ -> ())

(* a resume point: the finished work goes to disk, then a requested
   interrupt (SIGINT, or [Checkpoint.request_interrupt]) stops the run *)
let boundary cfg cache () =
  save_cache cfg cache;
  E.Checkpoint.guard ()

let evaluator_of ~salt cache =
  Repro_moo.Problem.parallel_evaluator ~cache ~salt ()

(* the human-facing algorithm label for progress lines *)
let optimiser_label cfg =
  (match cfg.optimiser with Nsga2 -> "NSGA-II" | De -> "DE")
  ^ if screened cfg then "+surrogate" else ""

(* ---- circuit front end -------------------------------------------- *)

(* the two construction seams of the circuit front end — the problem the
   circuit GA runs and the netlist measured at a sizing: with
   [circuit = None] both are exactly the built-in paths, so built-in
   artefacts stay byte-identical *)
let circuit_problem cfg =
  match cfg.circuit with
  | None -> Vco_problem.problem ~measure_options:cfg.measure ~spec:cfg.spec ()
  | Some c ->
    Vco_problem.problem ~measure_options:cfg.measure ~spec:cfg.spec
      ~builder:c.build ~bounds:c.bounds ()

let circuit_netlist cfg params =
  match cfg.circuit with
  | None ->
    Repro_circuit.Topologies.ring_vco ~stages:cfg.measure.V.stages
      ~vdd:cfg.measure.V.vdd ~vctl:cfg.measure.V.vctl_lo params
  | Some c -> c.build params

let circuit_builder cfg = Option.map (fun c -> c.build) cfg.circuit

(* ---- run lifecycle ------------------------------------------------ *)

(* The journal's run fingerprint: the cache salt's inputs plus seed and
   scale, which together fix the run.  Worker count is deliberately
   excluded — results are bit-identical for any [-j].  [extra] binds
   standalone system-level runs to their input model. *)
let fingerprint ?(extra = "") cfg =
  Printf.sprintf "%08x%s"
    (Hashtbl.hash_param 256 256
       ( cfg.seed,
         cfg.scale,
         cfg.spec,
         cfg.measure,
         cfg.process,
         cfg.use_variation,
         circuit_tag cfg,
         (optimiser_name cfg.optimiser, screened cfg) ))
    extra

(* the testing hook: stop at a phase boundary exactly as an external
   interrupt there would *)
let maybe_stop_after ~interrupt_after phase =
  match interrupt_after with
  | Some p when p = phase -> raise E.Checkpoint.Interrupted
  | _ -> ()

(* What [run] and [run_system_level] share: the journal brackets the
   run, and the eval cache is loaded before it and saved after it, also
   when an interrupt stops it, so that running the same command again
   resumes. *)
let with_run ~progress ~fingerprint cfg f =
  let t_run = Unix.gettimeofday () in
  let c_run = counter_baseline () in
  let journal = open_journal ~fingerprint cfg in
  Fun.protect
    ~finally:(fun () -> close_journal t_run c_run journal)
    (fun () ->
      let cache = load_cache cfg in
      match f cache with
      | result ->
        save_cache ~progress cfg cache;
        result
      | exception (E.Checkpoint.Interrupted as e) ->
        save_cache ~progress cfg cache;
        raise e)

(* one run of the config's optimiser, with [at_generation] called after
   the initial population and after every generation.  A screened
   optimiser's evaluator is wrapped in the surrogate pre-screen; the
   screen is a pure function of the evaluations it has seen, so a
   re-run over a warm cache makes the same decisions. *)
let run_ga ~progress ~label cfg ~population ~generations ~evaluator ~hv_of
    ~at_generation problem prng =
  let surrogate = screened cfg in
  let evaluator =
    if surrogate then
      Repro_moo.Surrogate.wrap (Repro_moo.Surrogate.create ()) evaluator
    else evaluator
  in
  let a0 = E.Telemetry.counter "eval.avoided"
  and p0 = E.Telemetry.counter "eval.paid" in
  (* per-generation convergence entry for the journal: front size,
     objective-space spread, and the exact hypervolume indicator.
     Pure functions of the population — skipped entirely (not even
     computed) when no journal is active, and unable to perturb the GA
     either way. *)
  let record generation pop =
    if Obs.Journal.active () then begin
      let front = Nsga2.pareto_front pop in
      let evals = Nsga2.evaluations front in
      Obs.Journal.record_ga_generation ~label ~generation
        ~front_size:(Array.length front)
        ~spread:(Repro_moo.Pareto.spread_2d evals)
        ~hypervolume:(hv_of evals)
    end
  in
  let pop =
    optimise cfg.optimiser ~population ~generations ~evaluator
      ~on_generation:(fun generation pop ->
        record generation pop;
        at_generation ())
      problem prng
  in
  if surrogate then begin
    let avoided = E.Telemetry.counter "eval.avoided" - a0
    and paid = E.Telemetry.counter "eval.paid" - p0 in
    say progress "%s level: surrogate screen avoided %d/%d exact evals"
      label avoided (avoided + paid);
    Obs.Journal.record_evals ~label ~avoided ~paid
  end;
  pop

(* ---- the flow ----------------------------------------------------- *)

let pll_config_of ?pll_query cfg model =
  {
    (Pll_problem.default_config ~model) with
    Pll_problem.spec = cfg.spec;
    use_variation = cfg.use_variation;
    query = pll_query;
  }

let verify_design cfg ~model (row : Pll_problem.table2_row) =
  let kvco = row.Pll_problem.kv and ivco = row.Pll_problem.iv in
  let requested =
    {
      V.kvco;
      ivco;
      jvco = Perf_table.jvco_of model ~kvco ~ivco;
      fmin = Perf_table.fmin_of model ~kvco ~ivco;
      fmax = Perf_table.fmax_of model ~kvco ~ivco;
    }
  in
  let mapped = Perf_table.params_of_perf model requested in
  let measured =
    let outcome =
      match cfg.circuit with
      | None -> V.characterise ~options:cfg.measure mapped
      | Some c -> V.characterise_netlist ~options:cfg.measure (c.build mapped)
    in
    match outcome with
    | Ok p -> Ok p
    | Error f -> Error (V.failure_to_string f)
  in
  { requested; mapped; measured }

let run_system_level_inner ~progress ~cache ?interrupt_after ?pll_query cfg
    ~model ~front ~entries =
  let scale = cfg.scale in
  let pll_cfg = pll_config_of ?pll_query cfg model in
  say progress "system level: %s %dx%d over (Kvco, Ivco, C1, C2, R1)%s"
    (optimiser_label cfg) scale.pll_population scale.pll_generations
    (if cfg.use_variation then " with variation model"
     else " (nominal-only ablation)");
  let prng = Prng.create (cfg.seed + 77) in
  let pll_problem = Pll_problem.problem pll_cfg in
  let pll_pop =
    timed_phase "system-ga" @@ fun () ->
    run_ga ~progress ~label:"system" cfg ~population:scale.pll_population
      ~generations:scale.pll_generations
      ~evaluator:(evaluator_of ~salt:(system_salt cfg model) cache)
      ~hv_of:(Repro_moo.Hypervolume.of_front ~reference:system_hv_reference)
      ~at_generation:(boundary cfg cache) pll_problem prng
  in
  maybe_stop_after ~interrupt_after System_ga;
  let pll_front = Nsga2.pareto_front pll_pop in
  say progress "system level: %d Pareto solutions" (Array.length pll_front);
  (* rows, selection, verification and yield are pure functions of the
     GA output and the model, recomputed by every run rather than
     cached.  They are not free: over the bench fixture, verification's
     one transistor-level characterisation takes about a tenth of the
     system level's wall time and a 500-sample yield about a fifth *)
  let rows =
    Pll_problem.evaluate_points pll_cfg
      (Array.map (fun ind -> ind.Nsga2.x) pll_front)
    |> Array.to_list
    |> List.filter_map Result.to_option
    |> Array.of_list
  in
  let selected = Pll_problem.select_design pll_cfg rows in
  let verification =
    Option.map (fun row -> verify_design cfg ~model row) selected
  in
  let yield =
    Option.map
      (fun row ->
        say progress "yield: %d behavioural MC samples" scale.yield_samples;
        timed_phase "yield" @@ fun () ->
        Yield.behavioural ~n:scale.yield_samples
          ~prng:(Prng.create (cfg.seed + 99))
          pll_cfg row)
      selected
  in
  say progress "engine: %s" (E.Telemetry.line ());
  { front; entries; model; rows; selected; verification; yield;
    pll_config = pll_cfg }

let run_system_level ?(progress = fun _ -> ()) ?pll_query cfg ~model =
  (* [pll_query] is deliberately outside the fingerprint and the cache
     salt, like the worker count: a faithful remote oracle produces
     bit-identical results *)
  with_run ~progress
    ~fingerprint:(fingerprint ~extra:("-" ^ model_hash model) cfg)
    cfg
  @@ fun cache ->
  let entries = Perf_table.entries model in
  run_system_level_inner ~progress ~cache ?pll_query cfg ~model
    ~front:(Array.map (fun e -> e.Variation_model.design) entries)
    ~entries

let run ?(progress = fun _ -> ()) ?interrupt_after cfg =
  let scale = cfg.scale in
  with_run ~progress ~fingerprint:(fingerprint cfg) cfg @@ fun cache ->
  say progress "engine: %d worker(s), %s" (E.Config.jobs ())
    (E.Cache.stats_line cache);
  (* step 1: circuit-level MOO *)
  let front =
    say progress "circuit level: %s %dx%d over 7 W/L parameters"
      (optimiser_label cfg) scale.vco_population scale.vco_generations;
    let pop =
      timed_phase "circuit-ga" @@ fun () ->
      run_ga ~progress ~label:"circuit" cfg ~population:scale.vco_population
        ~generations:scale.vco_generations
        ~evaluator:(evaluator_of ~salt:(config_salt cfg) cache)
        ~hv_of:
          (Repro_moo.Hypervolume.of_front ~dims:circuit_hv_dims
             ~reference:circuit_hv_reference)
        ~at_generation:(boundary cfg cache) (circuit_problem cfg)
        (Prng.create cfg.seed)
    in
    let full_front = Vco_problem.front_designs pop in
    if Array.length full_front < 2 then
      raise
        (Degenerate_front
           {
             stage = "circuit-level";
             found = Array.length full_front;
             minimum = 2;
           });
    say progress "circuit level: %d Pareto designs" (Array.length full_front);
    if scale.front_max = max_int then full_front
    else Vco_problem.thin_front full_front ~max_points:scale.front_max
  in
  maybe_stop_after ~interrupt_after Circuit_ga;
  (* step 2: variation modelling; finished entries live in the cache *)
  let entries =
    let n_front = Array.length front in
    say progress "variation model: %d MC samples x %d designs"
      scale.mc_samples n_front;
    let analysed = ref 0 in
    let entries =
      timed_phase "variation-mc" @@ fun () ->
      Variation_model.analyse_front
        ~options:
          {
            Variation_model.samples = scale.mc_samples;
            process = cfg.process;
            measure = cfg.measure;
          }
        ?builder:(circuit_builder cfg)
        ~progress:(fun i n ->
          say progress "variation model: design %d/%d" (i + 1) n)
        ~cache:(cache, variation_salt cfg)
        ~on_entry:(fun _ _ ->
          incr analysed;
          boundary cfg cache ())
        ~prng:(Prng.create (cfg.seed + 13))
        front
    in
    if !analysed < n_front then
      say progress "variation model: %d/%d entries from the eval cache"
        (n_front - !analysed) n_front;
    entries
  in
  maybe_stop_after ~interrupt_after Variation;
  (* step 3: combined table model (cheap, pure — rebuilt every run) *)
  let model =
    timed_phase "model" @@ fun () ->
    let model = Perf_table.build entries in
    (match cfg.model_dir with
    | Some dir ->
      Perf_table.save ~dir model;
      say progress "table model saved to %s" dir
    | None -> ());
    model
  in
  maybe_stop_after ~interrupt_after Model;
  (* steps 4-5 *)
  run_system_level_inner ~progress ~cache ?interrupt_after cfg ~model ~front
    ~entries
