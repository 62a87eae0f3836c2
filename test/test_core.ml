module H = Hieropt
module V = Repro_spice.Vco_measure
module T = Repro_circuit.Topologies

let checkf tol msg = Alcotest.(check (float tol)) msg

(* ---- spec ---- *)

let test_spec_default_valid () = H.Spec.validate H.Spec.default

let test_spec_validation () =
  let bad f =
    try
      H.Spec.validate (f H.Spec.default);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "inverted band" true
    (bad (fun s -> { s with H.Spec.f_out_high = 1e6 }));
  Alcotest.(check bool) "target outside band" true
    (bad (fun s -> { s with H.Spec.f_target = 1e3 }));
  Alcotest.(check bool) "divider mismatch" true
    (bad (fun s -> { s with H.Spec.n_div = 9 }));
  Alcotest.(check bool) "negative budget" true
    (bad (fun s -> { s with H.Spec.current_max = -1.0 }))

(* ---- vco problem encoding ---- *)

let sample_perf =
  { V.kvco = 800e6; ivco = 6e-3; jvco = 0.2e-12; fmin = 450e6; fmax = 1.3e9 }

let test_objectives_roundtrip () =
  let o = H.Vco_problem.objectives_of_perf sample_perf in
  Alcotest.(check int) "5 objectives" 5 (Array.length o);
  let p = H.Vco_problem.perf_of_objectives o in
  Alcotest.(check bool) "roundtrip" true (p = sample_perf);
  (* signs: gain and fmax are maximised *)
  Alcotest.(check bool) "neg kvco" true (o.(2) < 0.0);
  Alcotest.(check bool) "neg fmax" true (o.(4) < 0.0);
  checkf 0.0 "jvco first" sample_perf.V.jvco o.(0)

let mk_design kvco ivco jvco =
  {
    H.Vco_problem.params =
      { T.vco_default with T.wn = 10e-6 +. (kvco /. 1e9 *. 10e-6) };
    perf = { V.kvco; ivco; jvco; fmin = kvco /. 2.0; fmax = kvco *. 1.5 };
  }

let test_thin_front () =
  let designs =
    Array.init 20 (fun i -> mk_design (float_of_int (i + 1) *. 1e8) 5e-3 1e-13)
  in
  let thin = H.Vco_problem.thin_front designs ~max_points:5 in
  Alcotest.(check int) "thinned" 5 (Array.length thin);
  (* endpoints preserved *)
  let kv = Array.map (fun d -> d.H.Vco_problem.perf.V.kvco) thin in
  checkf 1.0 "lowest kept" 1e8 kv.(0);
  checkf 1.0 "highest kept" 2e9 kv.(4);
  (* no thinning needed *)
  Alcotest.(check int) "small front untouched" 20
    (Array.length (H.Vco_problem.thin_front designs ~max_points:50))

(* ---- perf table over synthetic entries ---- *)

let synthetic_entries =
  (* a smooth family: jvco falls as ivco rises; deltas follow the paper's
     ordering *)
  Array.init 8 (fun i ->
      let kvco = 400e6 +. (float_of_int i *. 200e6) in
      let ivco = 3e-3 +. (float_of_int i *. 1e-3) in
      let jvco = 0.4e-12 -. (float_of_int i *. 0.03e-12) in
      let params =
        {
          T.wn = 10e-6 +. (float_of_int i *. 5e-6);
          ln = 0.2e-6;
          wp = 20e-6 +. (float_of_int i *. 8e-6);
          lp = 0.2e-6;
          wcn = 30e-6;
          wcp = 50e-6;
          lc = 0.24e-6;
        }
      in
      {
        H.Variation_model.design =
          {
            H.Vco_problem.params;
            perf =
              { V.kvco; ivco; jvco; fmin = 300e6 +. (float_of_int i *. 50e6);
                fmax = 1.0e9 +. (float_of_int i *. 100e6) };
          };
        d_kvco = 0.02;
        d_jvco = 0.20 +. (0.01 *. float_of_int i);
        d_ivco = 0.025;
        d_fmin = 0.03;
        d_fmax = 0.02;
        mc_samples = 20;
        mc_failures = 0;
      })

let model = H.Perf_table.build synthetic_entries

let test_perf_table_build_validation () =
  Alcotest.(check bool) "needs 2 entries" true
    (try ignore (H.Perf_table.build [| synthetic_entries.(0) |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "size" 8 (H.Perf_table.size model)

let test_delta_interpolation () =
  (* exact at sample points *)
  checkf 1e-9 "dkvco at sample" 0.02 (H.Perf_table.kvco_delta model 400e6);
  checkf 1e-9 "djvco at sample" 0.20 (H.Perf_table.jvco_delta model 0.4e-12);
  (* clamped outside range (3E policy -> clamp for optimiser queries) *)
  checkf 1e-9 "clamp below" 0.02 (H.Perf_table.kvco_delta model 1e6);
  checkf 1e-9 "clamp above" 0.02 (H.Perf_table.kvco_delta model 1e10)

let test_perf_interpolation () =
  (* exact hit recovers sample jvco *)
  checkf 1e-20 "jvco at sample" 0.4e-12
    (H.Perf_table.jvco_of model ~kvco:400e6 ~ivco:3e-3);
  (* interpolation between samples stays within the sample envelope *)
  let j = H.Perf_table.jvco_of model ~kvco:500e6 ~ivco:3.5e-3 in
  Alcotest.(check bool) "between samples" true (j < 0.4e-12 && j > 0.1e-12)

let test_param_recovery () =
  let e = synthetic_entries.(3) in
  let p =
    H.Perf_table.params_of_perf model e.H.Variation_model.design.H.Vco_problem.perf
  in
  (* exact performance hit must recover the exact sizing *)
  Alcotest.(check (float 1e-12)) "wn recovered"
    e.H.Variation_model.design.H.Vco_problem.params.T.wn p.T.wn

let test_ranges () =
  let klo, khi = H.Perf_table.kvco_range model in
  checkf 1.0 "kvco lo" 400e6 klo;
  checkf 1.0 "kvco hi" 1.8e9 khi;
  let lo, hi = H.Perf_table.min_max_of_delta ~nominal:100.0 ~delta:0.05 in
  checkf 1e-9 "min" 95.0 lo;
  checkf 1e-9 "max" 105.0 hi

let test_save_load_roundtrip () =
  let dir = Filename.temp_file "hieropt_model" "" in
  Sys.remove dir;
  H.Perf_table.save ~dir model;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      (* all the Listing-1 files exist *)
      List.iter
        (fun f ->
          if not (Sys.file_exists (Filename.concat dir f)) then
            Alcotest.failf "missing %s" f)
        [ "kvco_delta.tbl"; "jvco_delta.tbl"; "ivco_delta.tbl";
          "fmin_delta.tbl"; "fmax_delta.tbl"; "data.tbl"; "p1_data.tbl";
          "p7_data.tbl"; "pareto.tbl" ];
      let model2 = H.Perf_table.load ~dir in
      Alcotest.(check int) "entries preserved" 8 (H.Perf_table.size model2);
      checkf 1e-12 "delta preserved" 0.02 (H.Perf_table.kvco_delta model2 400e6);
      checkf 1e-24 "jvco preserved" 0.4e-12
        (H.Perf_table.jvco_of model2 ~kvco:400e6 ~ivco:3e-3))

(* ---- pll problem over the synthetic model ---- *)

let pll_cfg = H.Pll_problem.default_config ~model

let test_pll_evaluate_point () =
  match
    H.Pll_problem.evaluate_point pll_cfg ~kvco:600e6 ~ivco:6e-3 ~c1:10e-12
      ~c2:0.5e-12 ~r1:4e3
  with
  | Error e -> Alcotest.failf "evaluate_point: %s" e
  | Ok row ->
    Alcotest.(check bool) "kv brackets" true
      (row.H.Pll_problem.kv_min < row.H.Pll_problem.kv
      && row.H.Pll_problem.kv < row.H.Pll_problem.kv_max);
    Alcotest.(check bool) "iv brackets" true
      (row.H.Pll_problem.iv_min < row.H.Pll_problem.iv
      && row.H.Pll_problem.iv < row.H.Pll_problem.iv_max);
    Alcotest.(check bool) "lock bracket ordering" true
      (row.H.Pll_problem.lock_min <= row.H.Pll_problem.lock
      && row.H.Pll_problem.lock <= row.H.Pll_problem.lock_max +. 1e-12);
    Alcotest.(check bool) "positive everything" true
      (row.H.Pll_problem.lock > 0.0 && row.H.Pll_problem.jit > 0.0
      && row.H.Pll_problem.curr > 0.0);
    (* kv bracket width = 2 * 2% *)
    checkf 1e-6 "bracket width"
      (0.04 *. row.H.Pll_problem.kv)
      (row.H.Pll_problem.kv_max -. row.H.Pll_problem.kv_min)

let test_pll_unstable_point_fails () =
  match
    H.Pll_problem.evaluate_point pll_cfg ~kvco:1.0e9 ~ivco:6e-3 ~c1:5e-12
      ~c2:0.5e-12 ~r1:1.0
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tiny R1 should be unstable"

let test_select_design () =
  let row lock curr jit =
    {
      H.Pll_problem.kv = 1e9; kv_min = 0.99e9; kv_max = 1.01e9; iv = 6e-3;
      iv_min = 5.9e-3; iv_max = 6.1e-3; c1 = 5e-12; c2 = 0.5e-12; r1 = 4e3;
      lock; lock_min = lock; lock_max = lock; jit; jit_min = jit;
      jit_max = jit; curr; curr_min = curr; curr_max = curr;
    }
  in
  let rows =
    [| row 0.5e-6 14e-3 2e-12; (* feasible, jit 2 *)
       row 0.4e-6 14e-3 1e-12; (* feasible, jit 1 -> winner *)
       row 2.0e-6 10e-3 0.1e-12; (* lock too slow *)
       row 0.3e-6 20e-3 0.1e-12 (* current over budget *) |]
  in
  (match H.Pll_problem.select_design pll_cfg rows with
  | Some r -> checkf 1e-18 "lowest-jitter feasible" 1e-12 r.H.Pll_problem.jit
  | None -> Alcotest.fail "expected a selection");
  (* nothing feasible -> None *)
  Alcotest.(check bool) "no feasible -> None" true
    (H.Pll_problem.select_design pll_cfg [| row 2e-6 20e-3 1e-12 |] = None)

let test_pll_problem_objectives () =
  let problem = H.Pll_problem.problem pll_cfg in
  Alcotest.(check int) "5 designables" 5 (Repro_moo.Problem.n_vars problem);
  Alcotest.(check int) "3 objectives" 3 (Repro_moo.Problem.n_objectives problem);
  let e = problem.Repro_moo.Problem.evaluate [| 600e6; 6e-3; 10e-12; 0.5e-12; 4e3 |] in
  Alcotest.(check bool) "finite objectives" true
    (Array.for_all Float.is_finite e.Repro_moo.Problem.objectives)

(* ---- yield ---- *)

let test_check_sample () =
  let o =
    H.Yield.check_sample pll_cfg ~kvco:600e6 ~ivco:6e-3 ~c1:10e-12 ~c2:0.5e-12
      ~r1:4e3
  in
  Alcotest.(check bool) "sane sample passes" true o.H.Yield.pass;
  let bad =
    H.Yield.check_sample pll_cfg ~kvco:600e6 ~ivco:20e-3 ~c1:10e-12 ~c2:0.5e-12
      ~r1:4e3
  in
  Alcotest.(check bool) "over-current fails" false bad.H.Yield.pass;
  Alcotest.(check string) "reason" "current over budget" bad.H.Yield.detail

let test_behavioural_yield () =
  match
    H.Pll_problem.evaluate_point pll_cfg ~kvco:600e6 ~ivco:5e-3 ~c1:10e-12
      ~c2:0.5e-12 ~r1:4e3
  with
  | Error e -> Alcotest.failf "setup: %s" e
  | Ok row ->
    let prng = Repro_util.Prng.create 7 in
    let y = H.Yield.behavioural ~n:40 ~prng pll_cfg row in
    Alcotest.(check int) "40 samples" 40 y.Repro_util.Stats.total;
    Alcotest.(check bool) "high yield for a comfortable design" true
      (y.Repro_util.Stats.fraction > 0.8)

(* ---- experiments rendering ---- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_ascii_plot () =
  let pts = Array.init 50 (fun i -> (float_of_int i, sin (float_of_int i /. 5.0))) in
  let plot = H.Experiments.ascii_plot ~title:"test plot" pts in
  Alcotest.(check bool) "title present" true (contains plot "test plot");
  Alcotest.(check bool) "points plotted" true (contains plot "*");
  let tiny = H.Experiments.ascii_plot ~title:"tiny" [| (0.0, 0.0) |] in
  Alcotest.(check bool) "degenerate message" true (contains tiny "not enough")

let test_table1_rendering () =
  let s = H.Experiments.table1 synthetic_entries in
  Alcotest.(check bool) "header" true (contains s "Kvco(MHz/V)");
  Alcotest.(check bool) "8 rows numbered" true (contains s "\n8 ")

let test_fig7_rendering () =
  let designs = Array.map (fun e -> e.H.Variation_model.design) synthetic_entries in
  let s = H.Experiments.fig7_front designs in
  Alcotest.(check bool) "projection plot" true (contains s "projection");
  Alcotest.(check bool) "gain column" true (contains s "gain MHz/V")

let test_table2_rendering () =
  match
    H.Pll_problem.evaluate_point pll_cfg ~kvco:600e6 ~ivco:5e-3 ~c1:10e-12
      ~c2:0.5e-12 ~r1:4e3
  with
  | Error e -> Alcotest.failf "setup: %s" e
  | Ok row ->
    let s = H.Experiments.table2 ~selected:row [| row |] in
    Alcotest.(check bool) "selected marker" true (contains s "*");
    Alcotest.(check bool) "columns" true (contains s "Kvmin")

let test_fig8_rendering () =
  match
    H.Pll_problem.evaluate_point pll_cfg ~kvco:600e6 ~ivco:5e-3 ~c1:10e-12
      ~c2:0.5e-12 ~r1:4e3
  with
  | Error e -> Alcotest.failf "setup: %s" e
  | Ok row ->
    let s = H.Experiments.fig8_locking pll_cfg row in
    Alcotest.(check bool) "lock time reported" true (contains s "lock time");
    Alcotest.(check bool) "frequency plot" true (contains s "output frequency")

(* ---- hierarchy config plumbing ---- *)

let test_scales () =
  Alcotest.(check bool) "paper scale is bigger" true
    (H.Hierarchy.paper_scale.H.Hierarchy.vco_population
     > H.Hierarchy.bench_scale.H.Hierarchy.vco_population);
  Unix.putenv "HIEROPT_FULL" "";
  Alcotest.(check bool) "empty env -> bench" true
    (H.Hierarchy.scale_of_env () = H.Hierarchy.bench_scale);
  Unix.putenv "HIEROPT_FULL" "1";
  Alcotest.(check bool) "set env -> paper" true
    (H.Hierarchy.scale_of_env () = H.Hierarchy.paper_scale);
  Unix.putenv "HIEROPT_FULL" "0";
  Alcotest.(check bool) "zero env -> bench" true
    (H.Hierarchy.scale_of_env () = H.Hierarchy.bench_scale);
  Unix.putenv "HIEROPT_FULL" ""

(* ---- variation model on a stub (no simulator) ---- *)

let test_variation_entry_pp () =
  let s =
    Format.asprintf "%a" H.Variation_model.pp_entry synthetic_entries.(0)
  in
  Alcotest.(check bool) "pp mentions spread" true (contains s "∆")

(* ---- config construction ---- *)

let test_make_config_validation () =
  let rejected f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  (* the defaults are fine *)
  ignore (H.Hierarchy.make_config ());
  ignore (H.Hierarchy.make_config ~scale:H.Hierarchy.tiny_scale ());
  Alcotest.(check bool) "odd population" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.vco_population = 13 }
           ()));
  Alcotest.(check bool) "tiny population" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.pll_population = 2 }
           ()));
  Alcotest.(check bool) "zero generations" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.vco_generations = 0 }
           ()));
  Alcotest.(check bool) "negative samples" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.mc_samples = -1 }
           ()));
  Alcotest.(check bool) "front_max of 1" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.front_max = 1 }
           ()));
  Alcotest.(check bool) "invalid spec" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~spec:{ H.Spec.default with H.Spec.f_out_high = 1e6 }
           ()));
  ignore (H.Hierarchy.make_config ~optimiser:H.Hierarchy.De ());
  (* DE/rand/1 needs five members, NSGA-II four *)
  Alcotest.(check bool) "de circuit population of 4" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.vco_population = 4 }
           ~optimiser:H.Hierarchy.De ()));
  Alcotest.(check bool) "de system population of 4" true
    (rejected (fun () ->
         H.Hierarchy.make_config
           ~scale:{ H.Hierarchy.tiny_scale with H.Hierarchy.pll_population = 4 }
           ~optimiser:H.Hierarchy.De ()));
  ignore
    (H.Hierarchy.make_config
       ~scale:
         { H.Hierarchy.tiny_scale with
           H.Hierarchy.vco_population = 4;
           pll_population = 4 }
       ~optimiser:H.Hierarchy.Nsga2 ())

(* micro integration run: the full 5-step flow at a tiny scale —
   tiny_spec narrows the band to what random sizings reach in two
   generations (they cluster around fmax ~ 200-400 MHz) *)
let test_micro_flow () =
  let cfg =
    H.Hierarchy.make_config ~scale:H.Hierarchy.tiny_scale
      ~spec:H.Hierarchy.tiny_spec ()
  in
  let result = H.Hierarchy.run cfg in
  Alcotest.(check bool) "front non-empty" true
    (Array.length result.H.Hierarchy.front >= 2);
  Alcotest.(check bool) "entries produced" true
    (Array.length result.H.Hierarchy.entries >= 2);
  Alcotest.(check bool) "model built" true
    (H.Perf_table.size result.H.Hierarchy.model >= 2)

(* ---- system level over the committed perfbench fixture ---- *)

(* every field of every Table 2 row, the selection and the yield, each
   float printed losslessly *)
let table2_text (r : H.Hierarchy.result) =
  let g = Repro_util.Json.shortest in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i (w : H.Pll_problem.table2_row) ->
      Printf.bprintf b
        "row %d kv=%s kv_min=%s kv_max=%s iv=%s iv_min=%s iv_max=%s c1=%s \
         c2=%s r1=%s lock=%s lock_min=%s lock_max=%s jit=%s jit_min=%s \
         jit_max=%s curr=%s curr_min=%s curr_max=%s\n"
        i (g w.kv) (g w.kv_min) (g w.kv_max) (g w.iv) (g w.iv_min)
        (g w.iv_max) (g w.c1) (g w.c2) (g w.r1) (g w.lock) (g w.lock_min)
        (g w.lock_max) (g w.jit) (g w.jit_min) (g w.jit_max) (g w.curr)
        (g w.curr_min) (g w.curr_max))
    r.rows;
  (match r.selected with
  | None -> Printf.bprintf b "selected none\n"
  | Some s ->
    let i = ref (-1) in
    Array.iteri (fun j w -> if !i < 0 && w == s then i := j) r.rows;
    Printf.bprintf b "selected row %d\n" !i);
  (match r.yield with
  | None -> Printf.bprintf b "yield none\n"
  | Some y ->
    Printf.bprintf b "yield pass=%d total=%d fraction=%s ci_low=%s ci_high=%s\n"
      y.Repro_util.Stats.pass y.total (g y.fraction) (g y.ci_low)
      (g y.ci_high));
  Buffer.contents b

(* the shared pool is rebuilt at the new size on its next use *)
let with_jobs n f =
  let resize n =
    Repro_engine.Config.set_jobs n;
    Repro_engine.Pool.shutdown (Repro_engine.Pool.get_default ())
  in
  resize n;
  Fun.protect ~finally:(fun () -> resize 0) f

(* [dune runtest] runs in _build/default/test, [dune exec] in the root *)
let fixture () =
  H.Perf_table.load
    ~dir:
      (List.find Sys.file_exists [ "../perfbench/fixture"; "perfbench/fixture" ])

(* The smallest system level that still selects a design and computes a
   yield: an 8x1 GA, 10 yield samples *)
let small_system_scale =
  {
    H.Hierarchy.tiny_scale with
    H.Hierarchy.pll_population = 8;
    pll_generations = 1;
    yield_samples = 10;
  }

(* at the seed of the paper's runs, Table 2 and the yield must not move
   a bit at any job count *)
let test_system_level_golden () =
  let model = fixture () in
  let cfg = H.Hierarchy.make_config ~seed:2009 ~scale:small_system_scale () in
  let expected =
    In_channel.with_open_bin
      (List.find Sys.file_exists
         [ "system_level_2009.expected"; "test/system_level_2009.expected" ])
      In_channel.input_all
  in
  List.iter
    (fun jobs ->
      let r =
        with_jobs jobs (fun () -> H.Hierarchy.run_system_level cfg ~model)
      in
      Alcotest.(check string) (Printf.sprintf "-j %d" jobs) expected
        (table2_text r))
    [ 1; 2 ]

let with_tmpdir f =
  let dir = Filename.temp_file "hieropt_core" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Two models saved in turn to one model dir.  The second is the
   fixture with its Kvco, Jvco and Ivco spreads scaled x3, which keeps
   the Kvco/Ivco ranges and so the system GA's design space; its
   system-level evaluations must be simulated, not served from the
   first model's, and must match a cold run over it. *)
let test_system_level_cache_per_model () =
  let first = fixture () in
  let second =
    H.Perf_table.build
      (Array.map
         (fun (e : H.Variation_model.entry) ->
           {
             e with
             d_kvco = 3.0 *. e.d_kvco;
             d_jvco = 3.0 *. e.d_jvco;
             d_ivco = 3.0 *. e.d_ivco;
           })
         (H.Perf_table.entries first))
  in
  with_tmpdir @@ fun root ->
  let cfg name =
    H.Hierarchy.make_config ~seed:2009 ~scale:small_system_scale
      ~model_dir:(Filename.concat root name) ()
  in
  let counted f =
    let r0 = Repro_engine.Telemetry.counter "eval.runs" in
    let r = f () in
    (r, Repro_engine.Telemetry.counter "eval.runs" - r0)
  in
  ignore (H.Hierarchy.run_system_level (cfg "shared") ~model:first);
  let warm, warm_runs =
    counted (fun () -> H.Hierarchy.run_system_level (cfg "shared") ~model:second)
  in
  let cold, cold_runs =
    counted (fun () -> H.Hierarchy.run_system_level (cfg "cold") ~model:second)
  in
  Alcotest.(check bool) "the second model is simulated" true (cold_runs > 0);
  Alcotest.(check int) "as many simulations as a cold run" cold_runs warm_runs;
  Alcotest.(check string) "Table 2 of a cold run" (table2_text cold)
    (table2_text warm)

let suite =
  [
    Alcotest.test_case "spec default valid" `Quick test_spec_default_valid;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "objective encoding" `Quick test_objectives_roundtrip;
    Alcotest.test_case "thin front" `Quick test_thin_front;
    Alcotest.test_case "perf table validation" `Quick test_perf_table_build_validation;
    Alcotest.test_case "delta interpolation" `Quick test_delta_interpolation;
    Alcotest.test_case "performance interpolation" `Quick test_perf_interpolation;
    Alcotest.test_case "parameter recovery" `Quick test_param_recovery;
    Alcotest.test_case "ranges and brackets" `Quick test_ranges;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "pll evaluate point" `Quick test_pll_evaluate_point;
    Alcotest.test_case "pll unstable point" `Quick test_pll_unstable_point_fails;
    Alcotest.test_case "select design" `Quick test_select_design;
    Alcotest.test_case "pll problem shape" `Quick test_pll_problem_objectives;
    Alcotest.test_case "yield check sample" `Quick test_check_sample;
    Alcotest.test_case "behavioural yield" `Quick test_behavioural_yield;
    Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
    Alcotest.test_case "table1 rendering" `Quick test_table1_rendering;
    Alcotest.test_case "fig7 rendering" `Quick test_fig7_rendering;
    Alcotest.test_case "table2 rendering" `Quick test_table2_rendering;
    Alcotest.test_case "fig8 rendering" `Quick test_fig8_rendering;
    Alcotest.test_case "scales" `Quick test_scales;
    Alcotest.test_case "make_config validation" `Quick test_make_config_validation;
    Alcotest.test_case "variation entry pp" `Quick test_variation_entry_pp;
    Alcotest.test_case "micro end-to-end flow" `Slow test_micro_flow;
    Alcotest.test_case "system level golden over the fixture" `Quick
      test_system_level_golden;
    Alcotest.test_case "system level cache bound to its model" `Quick
      test_system_level_cache_per_model;
  ]
