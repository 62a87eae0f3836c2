(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sections fig7 / table1 / table2 / fig8 / yield / ablation)
   and times one Bechamel kernel per experiment plus the substrate
   hot paths.

   Workload: the fast bench scale by default; HIEROPT_FULL=1 switches to
   the paper's §4 settings (100x30 circuit GA, 100 MC samples per Pareto
   point, 500-sample yield check). *)

module H = Hieropt
module V = Repro_spice.Vco_measure
module T = Repro_circuit.Topologies
module E = Repro_engine

let section title =
  let bar = String.make 74 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" bar title bar

(* cumulative engine counters, printed at the end of every section *)
let telemetry_line () = Printf.printf "[%s]\n%!" (E.Telemetry.line ())

(* ------------------------------------------------------------------ *)
(* machine-readable metrics: every section records (section, key, value)
   and the whole run lands in BENCH.json, so the perf trajectory is
   diffable across PRs without scraping the human-readable report      *)
(* ------------------------------------------------------------------ *)

let bench_metrics : (string * string * float) list ref = ref []
let metric section key value = bench_metrics := (section, key, value) :: !bench_metrics

let write_bench_json path =
  let module J = Repro_util.Json in
  (* recorded newest-first; the file reads in run order *)
  let ms = List.rev !bench_metrics in
  (* fail loudly instead of emitting a file where one leg's numbers
     silently shadow another's (bench_check rejects duplicates too) *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s, k, _) ->
      if Hashtbl.mem seen (s, k) then
        failwith (Printf.sprintf "duplicate bench metric %s/%s" s k)
      else Hashtbl.add seen (s, k) ())
    ms;
  let sections =
    List.fold_left
      (fun acc (s, _, _) -> if List.mem s acc then acc else acc @ [ s ])
      [] ms
  in
  let doc =
    J.Obj
      (List.map
         (fun s ->
           ( s,
             J.Obj
               (List.filter_map
                  (fun (s', k, v) -> if s' = s then Some (k, J.Num v) else None)
                  ms) ))
         sections)
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[%d metrics written to %s]\n%!"
    (List.length !bench_metrics) path

(* ------------------------------------------------------------------ *)
(* experiment harness: one full flow run drives every artefact         *)
(* ------------------------------------------------------------------ *)

(* Leave-one-out cross-validation of the scattered (kvco, ivco) -> jvco
   table over the real Pareto data: which interpolation scheme would the
   Verilog-A model be best served by? *)
let interp_ablation (result : H.Hierarchy.result) =
  let entries = result.H.Hierarchy.entries in
  let n = Array.length entries in
  let buf = Buffer.create 512 in
  if n < 4 then begin
    Buffer.add_string buf "(front too small for cross-validation)\n";
    Buffer.contents buf
  end
  else begin
    let perf e = e.H.Variation_model.design.H.Vco_problem.perf in
    let loo scheme =
      let errs =
        Array.init n (fun leave ->
            let keep = Array.of_list
                (List.filteri (fun i _ -> i <> leave) (Array.to_list entries))
            in
            let pts =
              Array.map (fun e -> [| (perf e).V.kvco; (perf e).V.ivco |]) keep
            in
            let vals = Array.map (fun e -> (perf e).V.jvco) keep in
            let table = Repro_interp.Table_nd.build ~scheme pts vals in
            let p = perf entries.(leave) in
            let predicted =
              Repro_interp.Table_nd.eval table [| p.V.kvco; p.V.ivco |]
            in
            Float.abs (predicted -. p.V.jvco) /. p.V.jvco)
      in
      100.0 *. Repro_util.Stats.mean errs
    in
    Printf.ksprintf (Buffer.add_string buf)
      "leave-one-out relative error of the jvco(kvco, ivco) table (%d points):\n"
      n;
    List.iter
      (fun (name, scheme) ->
        Printf.ksprintf (Buffer.add_string buf) "  %-24s %6.1f %%\n" name
          (loo scheme))
      [ ("nearest neighbour", Repro_interp.Table_nd.Nearest);
        ("IDW (paper-equivalent)", Repro_interp.Table_nd.Idw { power = 2.0; neighbours = 4 });
        ("RBF thin-plate", Repro_interp.Table_nd.Rbf Repro_interp.Table_nd.Thin_plate) ];
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* engine section: parallel + memoised evaluation on a real workload   *)
(* ------------------------------------------------------------------ *)

(* The table1 Monte-Carlo workload (perturb + re-characterise one Pareto
   design) run serially and over the pool, then a system-level batch
   evaluated cold and warm through the content-addressed cache.  Both
   legs assert bit-identical results — the engine's core guarantee. *)
let engine_bench (result : H.Hierarchy.result) =
  let design =
    match Array.length result.H.Hierarchy.front with
    | 0 -> T.vco_default
    | _ -> result.H.Hierarchy.front.(0).H.Vco_problem.params
  in
  let net = T.ring_vco ~vctl:0.5 design in
  let trial perturbed =
    match V.characterise_netlist perturbed with
    | Ok p -> Ok p.V.kvco
    | Error f -> Error (V.failure_to_string f)
  in
  let n = 32 in
  let mc_with size =
    E.Pool.with_pool ~size (fun pool ->
        let t0 = Unix.gettimeofday () in
        let r =
          Repro_spice.Monte_carlo.run ~pool ~n
            ~prng:(Repro_util.Prng.create 2009) net trial
        in
        (r, Unix.gettimeofday () -. t0))
  in
  (* pooled leg at the engine's own job policy: a pool never runs more
     domains than cores, so on a single-core host it degenerates to the
     caller-serial path and the ratio records pure dispatch overhead —
     forcing extra domains here would measure multi-domain GC thrash on
     a timeshared core, not the engine *)
  let workers = E.Config.jobs () in
  let serial, t_serial = mc_with 1 in
  let pooled, t_pooled = mc_with workers in
  metric "engine" "mc_serial_s" t_serial;
  metric "engine" "mc_pooled_s" t_pooled;
  metric "engine" "mc_speedup" (t_serial /. Float.max t_pooled 1e-9);
  Printf.printf
    "table1-style MC workload, %d trials (perturb + re-characterise):\n" n;
  Printf.printf "  1 worker   %7.2f s\n" t_serial;
  Printf.printf "  %d workers  %7.2f s   speedup %.2fx   bit-identical: %b\n"
    workers t_pooled
    (t_serial /. Float.max t_pooled 1e-9)
    (serial.Repro_spice.Monte_carlo.samples
       = pooled.Repro_spice.Monte_carlo.samples
    && serial.Repro_spice.Monte_carlo.failures
         = pooled.Repro_spice.Monte_carlo.failures);
  (* cache leg: one system-level NSGA-II batch, cold then warm *)
  let problem = H.Pll_problem.problem result.H.Hierarchy.pll_config in
  let prng = Repro_util.Prng.create 7 in
  let batch =
    Array.init 64 (fun _ -> Repro_moo.Problem.random_point problem prng)
  in
  let cache = E.Cache.create () in
  let evaluator = Repro_moo.Problem.parallel_evaluator ~cache () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold, t_cold =
    timed (fun () -> Repro_moo.Problem.evaluate_all ~evaluator problem batch)
  in
  let warm, t_warm =
    timed (fun () -> Repro_moo.Problem.evaluate_all ~evaluator problem batch)
  in
  metric "engine" "cache_cold_s" t_cold;
  metric "engine" "cache_warm_s" t_warm;
  metric "engine" "cache_speedup" (t_cold /. Float.max t_warm 1e-9);
  Printf.printf "system-level batch of %d candidates through the eval cache:\n"
    (Array.length batch);
  Printf.printf "  cold cache %7.3f s\n" t_cold;
  Printf.printf "  warm cache %7.3f s   speedup %.1fx   bit-identical: %b\n"
    t_warm
    (t_cold /. Float.max t_warm 1e-9)
    (cold = warm);
  Printf.printf "  %s\n" (E.Cache.stats_line cache)

(* ------------------------------------------------------------------ *)
(* moo section: optimiser choice + surrogate pre-screen                *)
(* ------------------------------------------------------------------ *)

(* the standard two-objective ZDT1 kernel: cheap, convex true front,
   so hypervolume at a small fixed budget separates the two optimisers
   cleanly *)
let zdt1_problem () =
  Repro_moo.Problem.create ~name:"zdt1"
    ~bounds:(Array.make 10 (0.0, 1.0))
    ~objective_names:[| "f1"; "f2" |]
    (fun v ->
      let f1 = v.(0) in
      let s = ref 0.0 in
      for i = 1 to 9 do
        s := !s +. v.(i)
      done;
      let g = 1.0 +. !s in
      {
        Repro_moo.Problem.objectives = [| f1; g *. (1.0 -. sqrt (f1 /. g)) |];
        constraint_violation = 0.0;
      })

(* The flow's two optimisers at one identical evaluation budget on ZDT1,
   scored by the exact 2-D hypervolume, then the surrogate pre-screen
   on the flow's own circuit-level GA: the avoided/paid split from the
   telemetry counters and whether the screened front still agrees with
   the exhaustive one. *)
let moo_bench () =
  let zdt1 = zdt1_problem () in
  let pop = 24 and gens = 30 in
  let reference = [| 1.1; 1.1 |] in
  Printf.printf "ZDT1 at an identical budget (%d evaluations each):\n"
    (pop * (gens + 1));
  List.iter
    (fun opt ->
      let name = H.Hierarchy.optimiser_name opt in
      let t0 = Unix.gettimeofday () in
      let final =
        H.Hierarchy.optimise opt ~population:pop ~generations:gens zdt1
          (Repro_util.Prng.create 29)
      in
      let dt = Unix.gettimeofday () -. t0 in
      let front = Repro_moo.Nsga2.pareto_front final in
      let hv =
        Repro_moo.Pareto.hypervolume_2d ~reference
          (Repro_moo.Nsga2.evaluations front)
      in
      metric "moo" (Printf.sprintf "hv_at_budget_%s" name) hv;
      Printf.printf
        "  %-8s %2d front designs, hypervolume %.4f   (%.2f s)\n" name
        (Array.length front) hv dt)
    H.Hierarchy.optimisers;
  (* surrogate leg: the reference flow's circuit-level problem (tiny
     spec), same seed with screening off then on.  A fresh cold cache
     per leg keeps the wall times comparable and the avoided/paid
     split purely the surrogate's.  The screened run is DE behind
     [Surrogate.create ()], exactly what [--optimiser de] runs, so the
     gate measures the flow's own screen. *)
  let cfg =
    H.Hierarchy.make_config ~scale:H.Hierarchy.tiny_scale
      ~spec:H.Hierarchy.tiny_spec ()
  in
  let problem = H.Hierarchy.circuit_problem cfg in
  let ga_pop = 16 and ga_gens = 14 in
  let counter = E.Telemetry.counter in
  let leg ~surrogate =
    let evaluator =
      Repro_moo.Problem.parallel_evaluator ~cache:(E.Cache.create ()) ()
    in
    let evaluator =
      if surrogate then
        Repro_moo.Surrogate.wrap (Repro_moo.Surrogate.create ()) evaluator
      else evaluator
    in
    let avoided0 = counter "eval.avoided" in
    let t0 = Unix.gettimeofday () in
    let final =
      H.Hierarchy.optimise H.Hierarchy.De ~population:ga_pop
        ~generations:ga_gens ~evaluator problem
        (Repro_util.Prng.create cfg.H.Hierarchy.seed)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let avoided = counter "eval.avoided" - avoided0 in
    let hv =
      Repro_moo.Hypervolume.of_front ~dims:H.Hierarchy.circuit_hv_dims
        ~reference:H.Hierarchy.circuit_hv_reference
        (Repro_moo.Nsga2.evaluations (Repro_moo.Nsga2.pareto_front final))
    in
    (wall, avoided, hv)
  in
  let requested = ga_pop * (ga_gens + 1) in
  let wall_off, _, hv_off = leg ~surrogate:false in
  let wall_on, avoided, hv_on = leg ~surrogate:true in
  let ratio = float_of_int avoided /. float_of_int requested in
  (* front agreement: the screened run's hypervolume as a fraction of
     the exhaustive run's — 1.0 means screening lost nothing *)
  let agreement = if hv_off > 0.0 then hv_on /. hv_off else 0.0 in
  metric "moo" "surrogate.eval_avoided_ratio" ratio;
  metric "moo" "surrogate.front_agreement" agreement;
  metric "moo" "flow.wall_s" wall_on;
  Printf.printf
    "circuit-level DE (%dx%d, tiny spec), surrogate pre-screen off vs on:\n"
    ga_pop ga_gens;
  Printf.printf "  off  %7.2f s   hypervolume %.4g\n" wall_off hv_off;
  Printf.printf
    "  on   %7.2f s   hypervolume %.4g   avoided %d/%d exact evals \
     (%.0f%%)   front agreement %.3f\n"
    wall_on hv_on avoided requested (100.0 *. ratio) agreement

(* ------------------------------------------------------------------ *)
(* solver: the sparse MNA kernel on the reference VCO                  *)
(* ------------------------------------------------------------------ *)

let solver_bench () =
  let module S = Repro_spice in
  let net = T.ring_vco ~vctl:0.5 T.vco_default in
  let cm = S.Mna.compile net in
  let n = S.Mna.size cm in
  (* Best of reps after a warm-up run (caches and the symbolic
     registry): the minimum is the standard robust wall-clock estimator,
     since scheduler preemptions and frequency ramps only ever add
     time. *)
  let best_of reps f =
    f ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let dcop () =
    match S.Dcop.solve_result cm with
    | Ok _ -> ()
    | Error e -> failwith (S.Solver_error.to_string e)
  in
  let t_dc = best_of 50 dcop in
  (* transient at the simulate default scale: 10 ns / 10 ps *)
  let opts = S.Transient.default_options ~t_stop:10e-9 ~dt:10e-12 in
  let transient () =
    match S.Transient.run_result cm opts with
    | Ok _ -> ()
    | Error e -> failwith (S.Solver_error.to_string e)
  in
  let t_tr = best_of 5 transient in
  let hits, misses = Repro_linalg.Sparse_lu.cache_stats () in
  Printf.printf "ring VCO: %d unknowns\n" n;
  Printf.printf "  dcop      %8.3f ms\n" (1e3 *. t_dc);
  Printf.printf "  transient %8.3f ms\n" (1e3 *. t_tr);
  Printf.printf "  symbolic registry: %d hits / %d misses\n" hits misses;
  metric "solver" "n" (float_of_int n);
  metric "solver" "dcop_sparse_ms" (1e3 *. t_dc);
  metric "solver" "transient_sparse_ms" (1e3 *. t_tr)

let run_experiments ~scale ~spec () =
  let cfg = H.Hierarchy.make_config ~scale ?spec ~model_dir:"hieropt_model" () in
  section
    (Printf.sprintf "hierarchical flow — %s scale (seed %d, %d worker(s)); spec: %s"
       (if scale = H.Hierarchy.paper_scale then "paper"
        else if scale = H.Hierarchy.tiny_scale then "tiny"
        else "bench")
       cfg.H.Hierarchy.seed (E.Config.jobs ())
       (Format.asprintf "%a" H.Spec.pp cfg.H.Hierarchy.spec));
  let t0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let progress s =
    Printf.printf "[%6.1fs] %s\n%!" (Unix.gettimeofday () -. wall0) s
  in
  let result = H.Hierarchy.run ~progress cfg in
  ignore t0;
  telemetry_line ();
  section "Figure 7 — circuit-level Pareto front";
  print_string (H.Experiments.fig7_front result.H.Hierarchy.front);
  telemetry_line ();
  section "Table 1 — performance and variation values";
  print_string (H.Experiments.table1 result.H.Hierarchy.entries);
  telemetry_line ();
  section "Table 2 — PLL system-level solution samples";
  print_string
    (H.Experiments.table2 ?selected:result.H.Hierarchy.selected
       result.H.Hierarchy.rows);
  telemetry_line ();
  section "Figure 8 — PLL locking transient";
  (match result.H.Hierarchy.selected with
  | Some row ->
    print_string (H.Experiments.fig8_locking result.H.Hierarchy.pll_config row)
  | None -> print_endline "(no selected design)");
  telemetry_line ();
  section "Yield verification (§4.5)";
  (match result.H.Hierarchy.yield with
  | Some y ->
    print_string
      (H.Experiments.yield_report y
         ~verification:result.H.Hierarchy.verification)
  | None -> print_endline "(no selected design)");
  telemetry_line ();
  section "Ablation — variation-aware vs nominal-only system optimisation";
  let ablation_cfg =
    H.Hierarchy.make_config ~scale ~model_dir:"hieropt_model"
      ~use_variation:false ()
  in
  let without =
    H.Hierarchy.run_system_level ~progress ablation_cfg
      ~model:result.H.Hierarchy.model
  in
  print_string
    (H.Experiments.ablation_report ~with_variation:result
       ~without_variation:without
       ~prng:(Repro_util.Prng.create 123));
  telemetry_line ();
  section "Ablation — table-model interpolation scheme (DESIGN.md §5)";
  print_string (interp_ablation result);
  telemetry_line ();
  section "Moo — optimiser choice + surrogate pre-screen";
  moo_bench ();
  telemetry_line ();
  section "Solver — sparse MNA kernel (reference VCO)";
  solver_bench ();
  telemetry_line ();
  section "Engine — deterministic parallel evaluation + cache";
  engine_bench result;
  telemetry_line ();
  section "Engine — full telemetry";
  print_string (E.Telemetry.report ());
  let wall = Unix.gettimeofday () -. wall0 in
  metric "flow" "wall_s" wall;
  Printf.printf "\n[experiments complete in %.1f s wall]\n%!" wall;
  result

(* ------------------------------------------------------------------ *)
(* Bechamel timing kernels: one per experiment + substrate hot paths   *)
(* ------------------------------------------------------------------ *)

let timing_tests (result : H.Hierarchy.result) =
  let open Bechamel in
  let model = result.H.Hierarchy.model in
  let pll_cfg = result.H.Hierarchy.pll_config in
  let design =
    match Array.length result.H.Hierarchy.front with
    | 0 -> T.vco_default
    | _ -> result.H.Hierarchy.front.(0).H.Vco_problem.params
  in
  let klo, khi = H.Perf_table.kvco_range model in
  let ilo, ihi = H.Perf_table.ivco_range model in
  let kvco = 0.5 *. (klo +. khi) and ivco = 0.5 *. (ilo +. ihi) in
  (* fig7 kernel: one transistor-level evaluation (the unit of GA cost) *)
  let fig7 =
    Test.make ~name:"fig7/vco-characterise"
      (Staged.stage (fun () -> ignore (V.characterise design)))
  in
  (* table1 kernel: one Monte-Carlo sample (perturb + re-characterise) *)
  let mc_prng = Repro_util.Prng.create 5 in
  let nominal_net = T.ring_vco ~vctl:0.5 design in
  let table1 =
    Test.make ~name:"table1/mc-sample"
      (Staged.stage (fun () ->
           let net =
             Repro_circuit.Process.sample Repro_circuit.Process.default
               (Repro_util.Prng.split mc_prng) nominal_net
           in
           ignore (V.characterise_netlist net)))
  in
  (* table2 kernel: one system-level candidate evaluation (3 PLL variants) *)
  let table2 =
    Test.make ~name:"table2/pll-evaluate-point"
      (Staged.stage (fun () ->
           ignore
             (H.Pll_problem.evaluate_point pll_cfg ~kvco ~ivco ~c1:10e-12
                ~c2:0.6e-12 ~r1:8e3)))
  in
  (* fig8 kernel: one behavioural PLL locking transient *)
  let pll_sim_cfg, _, _, _ =
    H.Pll_problem.variant_config pll_cfg ~kvco ~ivco ~c1:10e-12 ~c2:0.6e-12
      ~r1:8e3
  in
  let fig8 =
    Test.make ~name:"fig8/pll-transient"
      (Staged.stage (fun () ->
           ignore
             (Repro_behave.Pll.simulate pll_sim_cfg
                (Repro_behave.Pll.default_sim_options pll_sim_cfg))))
  in
  (* yield kernel: one behavioural MC sample *)
  let yield_prng = Repro_util.Prng.create 11 in
  let yield_test =
    Test.make ~name:"yield/mc-sample"
      (Staged.stage (fun () ->
           let dk = H.Perf_table.kvco_delta model kvco in
           let k =
             Repro_util.Prng.gaussian yield_prng ~mean:kvco ~sigma:(dk *. kvco)
           in
           ignore
             (H.Yield.check_sample pll_cfg ~kvco:k ~ivco ~c1:10e-12
                ~c2:0.6e-12 ~r1:8e3)))
  in
  (* substrate hot paths *)
  let cm = Repro_spice.Mna.compile nominal_net in
  let n = Repro_spice.Mna.size cm in
  let jac = Repro_linalg.Matrix.create n n in
  let res_vec = Array.make n 0.0 in
  let x = Array.make n 0.5 in
  let geq = Array.make (Repro_spice.Mna.cap_count cm) 1e-3 in
  let ieq = Array.make (Repro_spice.Mna.cap_count cm) 0.0 in
  let assemble =
    Test.make ~name:"substrate/mna-assemble"
      (Staged.stage (fun () ->
           Repro_spice.Mna.assemble cm ~x ~time:0.0 ~gmin:1e-12
             ~source_scale:1.0
             ~cap_mode:(Repro_spice.Mna.Companion { geq; ieq })
             ~jacobian:jac ~residual:res_vec))
  in
  Repro_spice.Mna.assemble cm ~x ~time:0.0 ~gmin:1e-12 ~source_scale:1.0
    ~cap_mode:(Repro_spice.Mna.Companion { geq; ieq })
    ~jacobian:jac ~residual:res_vec;
  let lu =
    Test.make ~name:"substrate/lu-solve"
      (Staged.stage (fun () ->
           try ignore (Repro_linalg.Lu.solve jac res_vec)
           with Repro_linalg.Lu.Singular _ -> ()))
  in
  let xs = Repro_util.Floatx.linspace 0.0 10.0 32 in
  let spline = Repro_interp.Spline.build xs (Array.map sin xs) in
  let spline_test =
    Test.make ~name:"substrate/cubic-spline-eval"
      (Staged.stage (fun () -> ignore (Repro_interp.Spline.eval spline 4.321)))
  in
  let zdt1 = zdt1_problem () in
  let nsga_prng = Repro_util.Prng.create 9 in
  let nsga =
    Test.make ~name:"substrate/nsga2-40x5-zdt1"
      (Staged.stage (fun () ->
           ignore
             (Repro_moo.Nsga2.optimise
                ~options:
                  {
                    Repro_moo.Nsga2.default_options with
                    population = 40;
                    generations = 5;
                  }
                zdt1
                (Repro_util.Prng.split nsga_prng))))
  in
  (* netlist front end + exporter: render the fitted table as SPICE and
     elaborate it back — the full text -> deck -> flat netlist path *)
  let spice_export = Repro_netlist.Export.spice model in
  let netlist_roundtrip =
    Test.make ~name:"netlist/export-parse-elaborate"
      (Staged.stage (fun () ->
           ignore
             (Repro_netlist.Elab.subckt_netlist
                (Repro_netlist.Parse.deck spice_export)
                "hieropt_vco")))
  in
  [
    fig7; table1; table2; fig8; yield_test; assemble; lu; spline_test; nsga;
    netlist_roundtrip;
  ]

let run_timings result =
  let open Bechamel in
  section "Bechamel timings — one kernel per experiment + substrate paths";
  let tests = timing_tests result in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            metric "timings" (name ^ "_ns") est;
            Printf.printf "  %-32s %s\n%!" name
              (if est > 1e9 then Printf.sprintf "%8.3f s/run" (est /. 1e9)
               else if est > 1e6 then Printf.sprintf "%8.3f ms/run" (est /. 1e6)
               else Printf.sprintf "%8.3f us/run" (est /. 1e3))
          | Some _ | None -> Printf.printf "  %-32s (no estimate)\n%!" name)
        analysed)
    tests

let usage () =
  prerr_endline
    "usage: bench [--scale tiny|bench|paper] [--write-baseline]\n\
     \n\
     --scale           workload scale (default: HIEROPT_FULL / bench)\n\
     --write-baseline  also write bench/BASELINE.json, the reference the\n\
     \                  CI bench-regression job compares BENCH.json against";
  exit 2

let () =
  let write_baseline = ref false in
  let scale = ref None in
  let rec parse = function
    | [] -> ()
    | "--write-baseline" :: rest ->
      write_baseline := true;
      parse rest
    | "--scale" :: v :: rest ->
      (match v with
      | "tiny" -> scale := Some (H.Hierarchy.tiny_scale, Some H.Hierarchy.tiny_spec)
      | "bench" -> scale := Some (H.Hierarchy.bench_scale, None)
      | "paper" -> scale := Some (H.Hierarchy.paper_scale, None)
      | _ ->
        Printf.eprintf "bench: unknown scale %S\n" v;
        usage ());
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale, spec =
    match !scale with
    | Some (s, spec) -> (s, spec)
    | None -> (H.Hierarchy.scale_of_env (), None)
  in
  let result = run_experiments ~scale ~spec () in
  run_timings result;
  write_bench_json "BENCH.json";
  if !write_baseline then write_bench_json "bench/BASELINE.json";
  print_newline ()
