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
   used by CI and the checkpoint tests *)
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

(* a pluggable circuit front end: how to turn the 7-float sizing vector
   into a measurable netlist.  [tag] is the template's content
   fingerprint — the only part of the record that may enter cache salts
   and snapshot fingerprints (the closure must never be hashed).  A
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
  checkpoint_every : int option;
  resume : bool;
  circuit : circuit option;
  optimiser : string;
}

let default_config ?(scale = bench_scale) () =
  {
    seed = 2009;
    scale;
    spec = Spec.default;
    measure = V.default_options;
    process = Repro_circuit.Process.default;
    use_variation = true;
    model_dir = None;
    checkpoint_every = None;
    resume = false;
    circuit = None;
    optimiser = "nsga2";
  }

let validate_scale s =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let even_pop name v =
    if v < 4 || v mod 2 <> 0 then
      fail "Hierarchy.make_config: %s must be even and >= 4 (got %d)" name v
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
    ?(use_variation = true) ?model_dir ?checkpoint_every ?(resume = false)
    ?circuit ?(optimiser = "nsga2") () =
  validate_scale scale;
  Spec.validate spec;
  Option.iter validate_circuit circuit;
  if Repro_moo.Optimiser.of_name optimiser = None then
    Printf.ksprintf invalid_arg
      "Hierarchy.make_config: unknown optimiser %S (expected one of %s)"
      optimiser
      (String.concat ", " Repro_moo.Optimiser.names);
  (match checkpoint_every with
  | Some n when n < 1 ->
    Printf.ksprintf invalid_arg
      "Hierarchy.make_config: checkpoint_every must be >= 1 (got %d)" n
  | _ -> ());
  if (resume || checkpoint_every <> None) && model_dir = None then
    invalid_arg
      "Hierarchy.make_config: resume/checkpointing requires a model_dir to \
       hold the snapshot";
  { seed; scale; spec; measure; process; use_variation; model_dir;
    checkpoint_every; resume; circuit; optimiser }

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

let phase_of_string = function
  | "circuit-ga" -> Some Circuit_ga
  | "variation" -> Some Variation
  | "model" -> Some Model
  | "system-ga" -> Some System_ga
  | _ -> None

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
   table, then what the simulator paid for them. *)
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
  ]

(* the baseline taken at run start *)
let counter_baseline () =
  List.map (fun (_, name) -> E.Telemetry.counter name) journal_counters

let close_journal t0 c0 = function
  | None -> ()
  | Some j ->
    Obs.Journal.run_finish j
      ~seconds:(Unix.gettimeofday () -. t0)
      (List.map2
         (fun (field, name) n0 ->
           (field, Json.Num (float_of_int (E.Telemetry.counter name - n0))))
         journal_counters c0);
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
let screened cfg = cfg.optimiser = "de"

let config_salt cfg =
  Printf.sprintf "%08x"
    (Hashtbl.hash_param 256 256
       ( cfg.spec,
         cfg.measure,
         cfg.process,
         cfg.use_variation,
         circuit_tag cfg,
         (* optimiser choice and screening are salted so a screened
            run's cache can never alias an exhaustive run's *)
         (cfg.optimiser, screened cfg) ))

let load_cache cfg =
  match cache_path cfg with
  | None -> E.Cache.create ()
  | Some path -> (
    match E.Cache.load_if_exists path with
    | Some cache -> cache
    | None -> E.Cache.create ())

let save_cache cfg cache progress =
  match cache_path cfg with
  | None -> ()
  | Some path -> (
    try
      E.Cache.save cache path;
      say progress "engine: %s saved to %s" (E.Cache.stats_line cache) path
    with Sys_error _ -> ())

let evaluator_of cfg cache =
  Repro_moo.Problem.parallel_evaluator ~cache ~salt:(config_salt cfg) ()

let portfolio_of cfg =
  match Repro_moo.Optimiser.of_name cfg.optimiser with
  | Some m -> m
  | None ->
    (* reachable only through hand-built config records; [make_config]
       validates the name *)
    invalid_arg ("Hierarchy: unknown optimiser " ^ cfg.optimiser)

(* the human-facing algorithm label for progress lines *)
let optimiser_label cfg =
  (match cfg.optimiser with
  | "nsga2" -> "NSGA-II"
  | "de" -> "DE"
  | other -> other)
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

(* ---- checkpoint wiring ------------------------------------------- *)

(* Unlike the cache salt, the snapshot fingerprint also covers seed and
   scale: a snapshot replays intermediate state, so it must bind to the
   exact run.  Worker count is deliberately excluded — results are
   bit-identical for any [-j], so resuming with a different worker count
   is sound.  [extra] binds standalone system-level snapshots to their
   input model. *)
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
         (cfg.optimiser, screened cfg) ))
    extra

let setup_checkpoint ?extra ~file cfg progress =
  if cfg.checkpoint_every = None && not cfg.resume then None
  else
    match cfg.model_dir with
    | None ->
      (* reachable only through hand-built config records;
         [make_config] rejects this combination *)
      E.Telemetry.warn ~key:"checkpoint.no_model_dir"
        "checkpointing requested without a model_dir — running without \
         snapshots";
      None
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir file in
      let every = Option.value ~default:1 cfg.checkpoint_every in
      let fp = fingerprint ?extra cfg in
      if cfg.resume then begin
        match E.Checkpoint.resume ~every ~fingerprint:fp path with
        | Ok ck ->
          say progress "checkpoint: resuming from %s" path;
          Obs.Journal.record_checkpoint ~action:"resume" ~path;
          Some ck
        | Error reason ->
          E.Telemetry.warn ~key:"checkpoint.cold_start"
            "cannot resume from %s (%s) — starting cold" path reason;
          Some (E.Checkpoint.create ~every ~fingerprint:fp path)
      end
      else Some (E.Checkpoint.create ~every ~fingerprint:fp path)

let snapshot_of = Option.map E.Checkpoint.snapshot

(* flush-and-raise at a phase boundary when the testing hook asks for it *)
let maybe_stop_after ~interrupt_after ck phase =
  match interrupt_after with
  | Some p when p = phase ->
    Option.iter E.Checkpoint.flush ck;
    raise E.Checkpoint.Interrupted
  | _ -> ()

(* one checkpointable optimiser run: restore a paused generation loop
   when the snapshot has one under [key], then step to completion,
   saving state each generation and flushing every [every].  The
   algorithm is any portfolio member; with [surrogate] its evaluator is
   wrapped in a pre-screen whose archive rides along in the snapshot
   (under [key ^ ".surrogate"]) so post-resume screening decisions are
   identical to the uninterrupted run's. *)
let run_ga ~progress ~label ~key ~optimiser ~options ~evaluator ~surrogate
    ~hv_of ~ck problem prng =
  let module O = (val (optimiser : Repro_moo.Optimiser.t)) in
  let skey = key ^ ".surrogate" in
  let with_screen sur =
    match sur with
    | None -> evaluator
    | Some s -> Repro_moo.Surrogate.wrap s evaluator
  in
  let a0 = E.Telemetry.counter "eval.avoided"
  and p0 = E.Telemetry.counter "eval.paid" in
  (* per-generation convergence entry for the journal: front size,
     objective-space spread, and the exact hypervolume indicator.
     Pure functions of the population — skipped entirely (not even
     computed) when no journal is active, and unable to perturb the GA
     either way. *)
  let record st =
    if Obs.Journal.active () then begin
      let front = Nsga2.pareto_front (O.population st) in
      let evals = Nsga2.evaluations front in
      Obs.Journal.record_ga_generation ~label
        ~generation:(O.generation st)
        ~front_size:(Array.length front)
        ~spread:(Repro_moo.Pareto.spread_2d evals)
        ~hypervolume:(hv_of evals)
    end
  in
  (* a resumable pair is optimiser state plus (when screening) the
     surrogate archive: one without the other would replay a different
     trajectory, so either restores both or the run cold-starts *)
  let restored =
    Option.bind (snapshot_of ck) (fun snap ->
        match O.restore_state ~options problem snap ~key with
        | None -> None
        | Some st ->
          if not surrogate then Some (st, None)
          else
            Option.map
              (fun s -> (st, Some s))
              (Repro_moo.Surrogate.restore_state problem snap ~key:skey))
  in
  let st, sur =
    match restored with
    | Some (st, sur) ->
      say progress "%s level: resumed %s at generation %d/%d" label O.name
        (O.generation st) options.Repro_moo.Optimiser.generations;
      (st, sur)
    | None ->
      let sur =
        if surrogate then Some (Repro_moo.Surrogate.create ()) else None
      in
      (O.init ~options ~evaluator:(with_screen sur) problem prng, sur)
  in
  let evaluator = with_screen sur in
  record st;
  while O.generation st < options.Repro_moo.Optimiser.generations do
    O.step ~evaluator problem st;
    record st;
    match ck with
    | None -> ()
    | Some c ->
      let snap = E.Checkpoint.snapshot c in
      O.save_state st snap ~key;
      Option.iter
        (fun s -> Repro_moo.Surrogate.save_state s snap ~key:skey)
        sur;
      if O.generation st mod E.Checkpoint.every c = 0
         || O.generation st = options.Repro_moo.Optimiser.generations
      then E.Checkpoint.flush c;
      E.Checkpoint.guard (Some c)
  done;
  if surrogate then begin
    let avoided = E.Telemetry.counter "eval.avoided" - a0
    and paid = E.Telemetry.counter "eval.paid" - p0 in
    say progress "%s level: surrogate screen avoided %d/%d exact evals"
      label avoided (avoided + paid);
    Obs.Journal.record_evals ~label ~avoided ~paid
  end;
  O.population st

(* ---- phase persistence ------------------------------------------- *)

let store_front snap front =
  E.Snapshot.set_rows snap "front"
    (Array.map Vco_problem.vector_of_design front);
  E.Snapshot.set_int snap "front.done" 1

let restore_front snap =
  match snap with
  | None -> None
  | Some snap ->
    if E.Snapshot.get_int snap "front.done" <> Some 1 then None
    else
      Option.bind (E.Snapshot.get_rows snap "front") (fun rows ->
          let designs = Array.map Vco_problem.design_of_vector rows in
          if Array.exists Option.is_none designs then None
          else Some (Array.map Option.get designs))

let store_entry_prefix snap entries =
  E.Snapshot.set_rows snap "entries"
    (Array.map Variation_model.row_of_entry entries)

let restore_entries snap ~expect =
  match snap with
  | None -> (false, [||])
  | Some snap -> (
    match E.Snapshot.get_rows snap "entries" with
    | None -> (false, [||])
    | Some rows ->
      let entries = Array.map Variation_model.entry_of_row rows in
      if Array.exists Option.is_none entries || Array.length entries > expect
      then (false, [||])
      else
        ( E.Snapshot.get_int snap "entries.done" = Some 1
          && Array.length entries = expect,
          Array.map Option.get entries ))

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

let run_system_level_inner ?(progress = fun _ -> ()) ?evaluator ?ck
    ?interrupt_after ?pll_query cfg ~model ~front ~entries =
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
    run_ga ~progress ~label:"system" ~key:"ga.system"
      ~optimiser:(portfolio_of cfg)
      ~options:
        {
          Repro_moo.Optimiser.population = scale.pll_population;
          generations = scale.pll_generations;
        }
      ~evaluator:(Option.value evaluator ~default:Repro_moo.Problem.serial_evaluator)
      ~surrogate:(screened cfg)
      ~hv_of:(Repro_moo.Hypervolume.of_front ~reference:system_hv_reference)
      ~ck pll_problem prng
  in
  maybe_stop_after ~interrupt_after ck System_ga;
  let pll_front = Nsga2.pareto_front pll_pop in
  say progress "system level: %d Pareto solutions" (Array.length pll_front);
  (* rows, selection and verification are cheap, pure functions of the
     GA output and the model — recomputed rather than persisted *)
  let rows =
    Array.to_list pll_front
    |> List.filter_map (Pll_problem.row_of_individual pll_cfg)
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
          ?checkpoint:(Option.map (fun c -> (c, "yield")) ck)
          pll_cfg row)
      selected
  in
  (match ck with
  | Some c ->
    E.Snapshot.set_int (E.Checkpoint.snapshot c) "run.done" 1;
    E.Checkpoint.flush c
  | None -> ());
  say progress "engine: %s" (E.Telemetry.line ());
  { front; entries; model; rows; selected; verification; yield;
    pll_config = pll_cfg }

let run_system_level ?(progress = fun _ -> ()) ?pll_query cfg ~model =
  let t_run = Unix.gettimeofday () in
  let c_run = counter_baseline () in
  let cache = load_cache cfg in
  (* bind the snapshot to the input model too: the same config re-run
     over a different saved model must not resume from stale state.
     [pll_query] is deliberately excluded, like the worker count: a
     faithful remote oracle produces bit-identical results, so resuming
     a local run against a served model (or vice versa) is sound. *)
  let extra =
    Printf.sprintf "-%08x"
      (Hashtbl.hash_param 1000 1000 (Perf_table.entries model))
  in
  let journal = open_journal ~fingerprint:(fingerprint ~extra cfg) cfg in
  let ck = setup_checkpoint ~extra ~file:"system.snapshot" cfg progress in
  let finish () =
    let result =
      run_system_level_inner ~progress
        ~evaluator:(evaluator_of cfg cache) ?ck ?pll_query cfg ~model
        ~front:
          (Array.map
             (fun e -> e.Variation_model.design)
             (Perf_table.entries model))
        ~entries:(Perf_table.entries model)
    in
    save_cache cfg cache progress;
    result
  in
  Fun.protect
    ~finally:(fun () -> close_journal t_run c_run journal)
    (fun () ->
      try finish ()
      with E.Checkpoint.Interrupted as e ->
        save_cache cfg cache progress;
        raise e)

let run ?(progress = fun _ -> ()) ?interrupt_after cfg =
  let t_run = Unix.gettimeofday () in
  let c_run = counter_baseline () in
  let scale = cfg.scale in
  let cache = load_cache cfg in
  let evaluator = evaluator_of cfg cache in
  let journal = open_journal ~fingerprint:(fingerprint cfg) cfg in
  let ck = setup_checkpoint ~file:"run.snapshot" cfg progress in
  let snap = snapshot_of ck in
  say progress "engine: %d worker(s), %s" (E.Config.jobs ())
    (E.Cache.stats_line cache);
  let body () =
    (* step 1: circuit-level MOO *)
    let front =
      match restore_front snap with
      | Some front ->
        say progress "circuit level: restored %d Pareto designs from snapshot"
          (Array.length front);
        front
      | None ->
        say progress "circuit level: %s %dx%d over 7 W/L parameters"
          (optimiser_label cfg) scale.vco_population scale.vco_generations;
        let prng = Prng.create cfg.seed in
        let vco_problem = circuit_problem cfg in
        let pop =
          timed_phase "circuit-ga" @@ fun () ->
          run_ga ~progress ~label:"circuit" ~key:"ga.circuit"
            ~optimiser:(portfolio_of cfg)
            ~options:
              {
                Repro_moo.Optimiser.population = scale.vco_population;
                generations = scale.vco_generations;
              }
            ~evaluator ~surrogate:(screened cfg)
            ~hv_of:
              (Repro_moo.Hypervolume.of_front ~dims:circuit_hv_dims
                 ~reference:circuit_hv_reference)
            ~ck vco_problem prng
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
        say progress "circuit level: %d Pareto designs"
          (Array.length full_front);
        let front =
          if scale.front_max = max_int then full_front
          else Vco_problem.thin_front full_front ~max_points:scale.front_max
        in
        (match ck with
        | Some c ->
          let s = E.Checkpoint.snapshot c in
          store_front s front;
          (* GA state is superseded by the stored front *)
          let module O = (val portfolio_of cfg) in
          O.clear_state s ~key:"ga.circuit";
          Repro_moo.Surrogate.clear_state s ~key:"ga.circuit.surrogate";
          E.Checkpoint.flush c
        | None -> ());
        front
    in
    maybe_stop_after ~interrupt_after ck Circuit_ga;
    (* step 2: variation modelling *)
    let entries =
      let n_front = Array.length front in
      let complete, already = restore_entries snap ~expect:n_front in
      if complete then begin
        say progress "variation model: restored %d entries from snapshot"
          (Array.length already);
        already
      end
      else begin
        if Array.length already > 0 then
          say progress "variation model: %d/%d designs restored from snapshot"
            (Array.length already) n_front;
        say progress "variation model: %d MC samples x %d designs"
          scale.mc_samples n_front;
        let prefix = ref already in
        let on_entry =
          Option.map
            (fun c i entry ->
              let s = E.Checkpoint.snapshot c in
              prefix := Array.append !prefix [| entry |];
              store_entry_prefix s !prefix;
              (* per-sample MC rows are superseded by the entry *)
              E.Snapshot.remove s ("mc." ^ string_of_int i);
              E.Checkpoint.flush c;
              E.Checkpoint.guard (Some c))
            ck
        in
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
            ~already ?on_entry ?checkpoint:ck
            ~prng:(Prng.create (cfg.seed + 13))
            front
        in
        (match ck with
        | Some c ->
          let s = E.Checkpoint.snapshot c in
          store_entry_prefix s entries;
          E.Snapshot.set_int s "entries.done" 1;
          E.Checkpoint.flush c
        | None -> ());
        entries
      end
    in
    maybe_stop_after ~interrupt_after ck Variation;
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
    maybe_stop_after ~interrupt_after ck Model;
    (* steps 4-5 *)
    let result =
      run_system_level_inner ~progress ~evaluator ?ck ?interrupt_after cfg
        ~model ~front ~entries
    in
    save_cache cfg cache progress;
    result
  in
  Fun.protect
    ~finally:(fun () -> close_journal t_run c_run journal)
    (fun () ->
      try body ()
      with E.Checkpoint.Interrupted as e ->
        (* keep the warm cache for the resumed run *)
        save_cache cfg cache progress;
        raise e)
