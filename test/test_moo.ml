module P = Repro_moo.Problem
module Pareto = Repro_moo.Pareto
module Nsga2 = Repro_moo.Nsga2
module Baselines = Repro_moo.Baselines

let ev ?(cv = 0.0) objectives = { P.objectives; constraint_violation = cv }

(* ---- dominance ---- *)

let test_dominance_basic () =
  Alcotest.(check bool) "strictly better dominates" true
    (Pareto.compare_dominance (ev [| 1.0; 1.0 |]) (ev [| 2.0; 2.0 |])
    = Pareto.Dominates);
  Alcotest.(check bool) "strictly worse dominated" true
    (Pareto.compare_dominance (ev [| 3.0; 3.0 |]) (ev [| 2.0; 2.0 |])
    = Pareto.Dominated);
  Alcotest.(check bool) "trade-off incomparable" true
    (Pareto.compare_dominance (ev [| 1.0; 3.0 |]) (ev [| 3.0; 1.0 |])
    = Pareto.Incomparable);
  Alcotest.(check bool) "equal incomparable" true
    (Pareto.compare_dominance (ev [| 1.0; 1.0 |]) (ev [| 1.0; 1.0 |])
    = Pareto.Incomparable);
  Alcotest.(check bool) "weak dominance counts" true
    (Pareto.compare_dominance (ev [| 1.0; 2.0 |]) (ev [| 1.0; 3.0 |])
    = Pareto.Dominates)

let test_constraint_domination () =
  Alcotest.(check bool) "feasible beats infeasible" true
    (Pareto.compare_dominance (ev [| 9.0; 9.0 |]) (ev ~cv:1.0 [| 0.0; 0.0 |])
    = Pareto.Dominates);
  Alcotest.(check bool) "lower violation wins" true
    (Pareto.compare_dominance (ev ~cv:0.5 [| 9.0; 9.0 |]) (ev ~cv:1.0 [| 0.0; 0.0 |])
    = Pareto.Dominates);
  Alcotest.(check bool) "equal violation incomparable" true
    (Pareto.compare_dominance (ev ~cv:1.0 [| 9.0 |]) (ev ~cv:1.0 [| 0.0 |])
    = Pareto.Incomparable)

let test_non_dominated_sort () =
  let evals =
    [| ev [| 1.0; 4.0 |]; ev [| 2.0; 3.0 |]; ev [| 3.0; 3.5 |];
       ev [| 4.0; 1.0 |]; ev [| 5.0; 5.0 |] |]
  in
  let ranks, fronts = Pareto.non_dominated_sort evals in
  Alcotest.(check (array int)) "ranks" [| 0; 0; 1; 0; 2 |] ranks;
  Alcotest.(check int) "3 fronts" 3 (Array.length fronts);
  Alcotest.(check (array int)) "front0" [| 0; 1; 3 |] fronts.(0)

let test_sort_all_equal () =
  let evals = Array.make 4 (ev [| 1.0; 1.0 |]) in
  let ranks, fronts = Pareto.non_dominated_sort evals in
  Alcotest.(check (array int)) "all rank 0" [| 0; 0; 0; 0 |] ranks;
  Alcotest.(check int) "one front" 1 (Array.length fronts)

let test_crowding () =
  let evals =
    [| ev [| 0.0; 4.0 |]; ev [| 1.0; 2.0 |]; ev [| 2.0; 1.5 |]; ev [| 4.0; 0.0 |] |]
  in
  let front = [| 0; 1; 2; 3 |] in
  let d = Pareto.crowding_distance evals front in
  Alcotest.(check bool) "boundaries infinite" true
    (d.(0) = infinity && d.(3) = infinity);
  Alcotest.(check bool) "interior finite" true
    (Float.is_finite d.(1) && Float.is_finite d.(2));
  Alcotest.(check bool) "interior positive" true (d.(1) > 0.0 && d.(2) > 0.0)

let test_crowding_small_front () =
  let evals = [| ev [| 0.0; 1.0 |]; ev [| 1.0; 0.0 |] |] in
  let d = Pareto.crowding_distance evals [| 0; 1 |] in
  Alcotest.(check bool) "pairs infinite" true (d.(0) = infinity && d.(1) = infinity)

let test_hypervolume_2d () =
  (* single point (1,1) vs ref (2,2): area 1 *)
  Alcotest.(check (float 1e-12)) "single point" 1.0
    (Pareto.hypervolume_2d ~reference:[| 2.0; 2.0 |] [| ev [| 1.0; 1.0 |] |]);
  (* staircase of two points *)
  Alcotest.(check (float 1e-12)) "two points" 3.0
    (Pareto.hypervolume_2d ~reference:[| 3.0; 3.0 |]
       [| ev [| 1.0; 2.0 |]; ev [| 2.0; 1.0 |] |]);
  (* dominated point must not add volume *)
  Alcotest.(check (float 1e-12)) "dominated adds nothing" 3.0
    (Pareto.hypervolume_2d ~reference:[| 3.0; 3.0 |]
       [| ev [| 1.0; 2.0 |]; ev [| 2.0; 1.0 |]; ev [| 2.5; 2.5 |] |]);
  (* out-of-reference point ignored *)
  Alcotest.(check (float 1e-12)) "outside ref ignored" 0.0
    (Pareto.hypervolume_2d ~reference:[| 1.0; 1.0 |] [| ev [| 2.0; 0.5 |] |])

let test_hypervolume_mc_agrees () =
  let evals = [| ev [| 1.0; 2.0 |]; ev [| 2.0; 1.0 |] |] in
  let exact = Pareto.hypervolume_2d ~reference:[| 3.0; 3.0 |] evals in
  let prng = Repro_util.Prng.create 17 in
  let approx =
    Pareto.hypervolume_mc ~samples:40000 ~prng ~reference:[| 3.0; 3.0 |]
      ~ideal:[| 0.0; 0.0 |] evals
  in
  Alcotest.(check bool) "MC close to exact" true
    (Float.abs (approx -. exact) < 0.15)

(* ---- problems ---- *)

let sphere n =
  P.create ~name:"sphere"
    ~bounds:(Array.make n (-5.0, 5.0))
    ~objective_names:[| "f" |]
    (fun x ->
      ev [| Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x |])

let zdt1 n =
  P.create ~name:"zdt1"
    ~bounds:(Array.make n (0.0, 1.0))
    ~objective_names:[| "f1"; "f2" |]
    (fun x ->
      let f1 = x.(0) in
      let s = ref 0.0 in
      for i = 1 to n - 1 do
        s := !s +. x.(i)
      done;
      let g = 1.0 +. (9.0 *. !s /. float_of_int (n - 1)) in
      ev [| f1; g *. (1.0 -. sqrt (f1 /. g)) |])

let constrained_problem =
  (* minimise (x, y) subject to x + y >= 1 *)
  P.create ~name:"constrained"
    ~bounds:[| (0.0, 2.0); (0.0, 2.0) |]
    ~objective_names:[| "x"; "y" |]
    (fun x ->
      {
        P.objectives = [| x.(0); x.(1) |];
        constraint_violation = Float.max 0.0 (1.0 -. (x.(0) +. x.(1)));
      })

let test_problem_validation () =
  Alcotest.(check bool) "empty bounds" true
    (try
       ignore (P.create ~name:"x" ~bounds:[||] ~objective_names:[| "f" |] (fun _ -> ev [| 0.0 |]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "inverted bounds" true
    (try
       ignore
         (P.create ~name:"x" ~bounds:[| (1.0, 0.0) |] ~objective_names:[| "f" |]
            (fun _ -> ev [| 0.0 |]));
       false
     with Invalid_argument _ -> true)

let test_problem_clamp_random () =
  let p = sphere 3 in
  let clamped = P.clamp p [| -10.0; 0.0; 10.0 |] in
  Alcotest.(check (array (float 1e-12))) "clamped" [| -5.0; 0.0; 5.0 |] clamped;
  let prng = Repro_util.Prng.create 1 in
  for _ = 1 to 100 do
    let x = P.random_point p prng in
    Array.iter
      (fun v -> if v < -5.0 || v >= 5.0 then Alcotest.fail "random outside box")
      x
  done

(* ---- NSGA-II ---- *)

(* ---- eval cache: a stored value of the wrong length is a miss ---- *)

(* A cache file truncated mid-write ends in a value list that is cut
   short.  Such an entry must be evaluated afresh (and counted as a run),
   never served as an evaluation with missing objectives. *)
let test_cache_wrong_arity_is_a_miss () =
  let module E = Repro_engine in
  let problem =
    P.create ~name:"arity" ~bounds:[| (0.0, 1.0) |]
      ~objective_names:[| "a"; "b"; "c" |]
      (fun x -> ev [| x.(0); 2.0 *. x.(0); 3.0 *. x.(0) |])
  in
  let x = [| 0.25 |] in
  let fresh = problem.P.evaluate x in
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let cache = E.Cache.create () in
  ignore (P.parallel_evaluator ~cache () problem [| x |]);
  E.Cache.save cache path;
  Alcotest.(check bool) "no tmp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  let header, fields =
    match In_channel.with_open_text path In_channel.input_lines with
    | [ header; entry ] -> (header, String.split_on_char '\t' entry)
    | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)
  in
  (* kind, sample, key bits, values *)
  let values = List.nth fields 3 in
  let with_values vals =
    String.concat "\t" (List.filteri (fun i _ -> i < 3) fields @ [ vals ])
  in
  let evaluate_from vals =
    Out_channel.with_open_text path (fun oc ->
        output_string oc (header ^ "\n" ^ with_values vals ^ "\n"));
    let cache = E.Cache.load path in
    let runs = E.Telemetry.counter "eval.runs"
    and hits = E.Telemetry.counter "eval.cache_hits" in
    let got = P.parallel_evaluator ~cache () problem [| x |] in
    ( got,
      E.Telemetry.counter "eval.runs" - runs,
      E.Telemetry.counter "eval.cache_hits" - hits )
  in
  List.iter
    (fun (label, vals, want_runs, want_hits) ->
      let got, runs, hits = evaluate_from vals in
      Alcotest.(check bool) (label ^ ": fresh evaluation") true
        (got = [| fresh |]);
      Alcotest.(check int) (label ^ ": eval.runs") want_runs runs;
      Alcotest.(check int) (label ^ ": eval.cache_hits") want_hits hits)
    [
      ("well-formed", values, 0, 1);
      ("cut short", String.sub values 0 (String.rindex values ','), 1, 0);
      ("empty", "", 1, 0);
    ]

(* the miss above is also repaired: the recomputed value replaces the
   stored one, so the point is simulated once, not on every call and
   every re-run over the saved cache *)
let test_cache_wrong_arity_is_repaired () =
  let module E = Repro_engine in
  let problem =
    P.create ~name:"repair" ~bounds:[| (0.0, 1.0) |]
      ~objective_names:[| "a"; "b" |]
      (fun x -> ev [| x.(0); 1.0 -. x.(0) |])
  in
  let x = [| 0.5 |] in
  let key = E.Cache.key ~kind:"eval:repair" x in
  let cache = E.Cache.create () in
  E.Cache.store cache key [| 0.5 |];
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let runs = E.Telemetry.counter "eval.runs" in
  let first = P.parallel_evaluator ~cache () problem [| x |] in
  let second = P.parallel_evaluator ~cache () problem [| x |] in
  E.Cache.save cache path;
  let reloaded = E.Cache.load path in
  let third = P.parallel_evaluator ~cache:reloaded () problem [| x |] in
  Alcotest.(check int) "simulated once" 1
    (E.Telemetry.counter "eval.runs" - runs);
  Alcotest.(check bool) "same evaluation every time" true
    (first = [| problem.P.evaluate x |] && second = first && third = first);
  Alcotest.(check (option int)) "saved value has the right length"
    (Some (1 + 2))
    (Option.map Array.length (E.Cache.find reloaded key))

let test_nsga2_converges_zdt1 () =
  let prng = Repro_util.Prng.create 7 in
  let pop =
    Nsga2.optimise
      ~options:{ Nsga2.default_options with population = 60; generations = 60 }
      (zdt1 10) prng
  in
  let front = Nsga2.pareto_front pop in
  Alcotest.(check bool) "front is large" true (Array.length front > 20);
  let errs =
    Array.map
      (fun ind ->
        let o = ind.Nsga2.evaluation.P.objectives in
        Float.abs (o.(1) -. (1.0 -. sqrt o.(0))))
      front
  in
  Alcotest.(check bool) "front near the analytic Pareto curve" true
    (Repro_util.Stats.mean errs < 0.05)

let test_nsga2_deterministic () =
  let run seed =
    let prng = Repro_util.Prng.create seed in
    let pop =
      Nsga2.optimise
        ~options:{ Nsga2.default_options with population = 20; generations = 5 }
        (zdt1 5) prng
    in
    Array.map (fun ind -> ind.Nsga2.evaluation.P.objectives) pop
  in
  Alcotest.(check bool) "same seed same run" true (run 3 = run 3);
  Alcotest.(check bool) "different seeds differ" true (run 3 <> run 4)

let test_nsga2_respects_constraints () =
  let prng = Repro_util.Prng.create 11 in
  let pop =
    Nsga2.optimise
      ~options:{ Nsga2.default_options with population = 40; generations = 40 }
      constrained_problem prng
  in
  let front = Nsga2.pareto_front pop in
  Alcotest.(check bool) "nonempty feasible front" true (Array.length front > 0);
  Array.iter
    (fun ind ->
      let o = ind.Nsga2.evaluation.P.objectives in
      (* feasible front should hug the x + y = 1 line *)
      if o.(0) +. o.(1) < 0.999 then Alcotest.fail "constraint violated";
      if o.(0) +. o.(1) > 1.2 then Alcotest.fail "front far from the active constraint")
    front

let test_nsga2_generation_callback () =
  let prng = Repro_util.Prng.create 2 in
  let calls = ref 0 in
  ignore
    (Nsga2.optimise
       ~options:{ Nsga2.default_options with population = 10; generations = 4 }
       ~on_generation:(fun _ _ -> incr calls)
       (zdt1 3) prng);
  Alcotest.(check int) "initial + per-generation callbacks" 5 !calls

let test_nsga2_bad_options () =
  Alcotest.(check bool) "odd population rejected" true
    (try
       ignore
         (Nsga2.optimise
            ~options:{ Nsga2.default_options with population = 7 }
            (zdt1 3)
            (Repro_util.Prng.create 1));
       false
     with Invalid_argument _ -> true)

let test_pareto_front_dedup () =
  let x = [| 0.5 |] in
  let front_size objectives =
    Array.length
      (Nsga2.pareto_front
         (Array.map (fun o -> { Nsga2.x; evaluation = ev o }) objectives))
  in
  Alcotest.(check int) "duplicates collapsed" 1
    (front_size [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]);
  (* distinct vectors equal to 12 significant digits are two designs *)
  Alcotest.(check int) "near-equal vectors kept" 2
    (front_size [| [| 1.; 1. +. 1e-12 |]; [| 1. +. 1e-12; 1. |] |]);
  Alcotest.(check int) "-0.0 and 0.0 are one value" 1
    (front_size [| [| 0.0; 1.0 |]; [| -0.0; 1.0 |] |])

(* ---- baselines ---- *)

let test_random_search_count () =
  let prng = Repro_util.Prng.create 5 in
  let pop = Baselines.random_search ~evaluations:50 (zdt1 5) prng in
  Alcotest.(check int) "all evaluations returned" 50 (Array.length pop)

let test_nsga2_beats_random_on_zdt1 () =
  let budget = 1200 in
  let nsga_pop =
    Nsga2.optimise
      ~options:{ Nsga2.default_options with population = 40; generations = 30 }
      (zdt1 8) (Repro_util.Prng.create 21)
  in
  let rs_pop =
    Baselines.random_search ~evaluations:budget (zdt1 8)
      (Repro_util.Prng.create 22)
  in
  let hv pop =
    Pareto.hypervolume_2d ~reference:[| 1.1; 7.0 |]
      (Nsga2.evaluations (Nsga2.pareto_front pop))
  in
  Alcotest.(check bool) "NSGA-II hypervolume wins at equal budget" true
    (hv nsga_pop > hv rs_pop)

(* ---- properties ---- *)

let eval_gen =
  QCheck.Gen.(
    let* n = int_range 2 3 in
    let* objs = array_size (return n) (float_range 0.0 10.0) in
    return (ev objs))

let evals_gen = QCheck.Gen.(array_size (int_range 2 25) eval_gen)

let prop_dominance_antisymmetric =
  QCheck.Test.make ~name:"dominance antisymmetry" ~count:300
    (QCheck.make QCheck.Gen.(pair eval_gen eval_gen))
    (fun (a, b) ->
      if Array.length a.P.objectives <> Array.length b.P.objectives then true
      else
        match (Pareto.compare_dominance a b, Pareto.compare_dominance b a) with
        | Pareto.Dominates, Pareto.Dominated
        | Pareto.Dominated, Pareto.Dominates
        | Pareto.Incomparable, Pareto.Incomparable -> true
        | _ -> false)

let prop_front0_mutually_incomparable =
  QCheck.Test.make ~name:"front 0 members don't dominate each other" ~count:200
    (QCheck.make evals_gen)
    (fun evals ->
      let same_dim =
        Array.for_all
          (fun (e : P.evaluation) ->
            Array.length e.P.objectives = Array.length evals.(0).P.objectives)
          evals
      in
      QCheck.assume same_dim;
      let front = Pareto.non_dominated evals in
      Array.for_all
        (fun i ->
          Array.for_all
            (fun j ->
              i = j
              || Pareto.compare_dominance evals.(i) evals.(j)
                 <> Pareto.Dominates)
            front)
        front)

let prop_ranks_consistent =
  QCheck.Test.make ~name:"dominator has rank <= dominated" ~count:200
    (QCheck.make evals_gen)
    (fun evals ->
      let same_dim =
        Array.for_all
          (fun (e : P.evaluation) ->
            Array.length e.P.objectives = Array.length evals.(0).P.objectives)
          evals
      in
      QCheck.assume same_dim;
      let ranks, _ = Pareto.non_dominated_sort evals in
      let n = Array.length evals in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Pareto.compare_dominance evals.(i) evals.(j) = Pareto.Dominates
          then if ranks.(i) >= ranks.(j) then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "dominance basics" `Quick test_dominance_basic;
    Alcotest.test_case "constraint domination" `Quick test_constraint_domination;
    Alcotest.test_case "non-dominated sort" `Quick test_non_dominated_sort;
    Alcotest.test_case "sort all equal" `Quick test_sort_all_equal;
    Alcotest.test_case "crowding distance" `Quick test_crowding;
    Alcotest.test_case "crowding small front" `Quick test_crowding_small_front;
    Alcotest.test_case "hypervolume 2d" `Quick test_hypervolume_2d;
    Alcotest.test_case "hypervolume MC" `Quick test_hypervolume_mc_agrees;
    Alcotest.test_case "cache entry of the wrong arity is a miss" `Quick
      test_cache_wrong_arity_is_a_miss;
    Alcotest.test_case "problem validation" `Quick test_problem_validation;
    Alcotest.test_case "clamp and random point" `Quick test_problem_clamp_random;
    Alcotest.test_case "NSGA-II converges on ZDT1" `Quick test_nsga2_converges_zdt1;
    Alcotest.test_case "NSGA-II deterministic" `Quick test_nsga2_deterministic;
    Alcotest.test_case "NSGA-II constraints" `Quick test_nsga2_respects_constraints;
    Alcotest.test_case "generation callback" `Quick test_nsga2_generation_callback;
    Alcotest.test_case "bad options" `Quick test_nsga2_bad_options;
    Alcotest.test_case "front dedup" `Quick test_pareto_front_dedup;
    Alcotest.test_case "random search count" `Quick test_random_search_count;
    Alcotest.test_case "cache entry of the wrong arity is repaired" `Quick
      test_cache_wrong_arity_is_repaired;
    Alcotest.test_case "NSGA-II beats random search" `Quick test_nsga2_beats_random_on_zdt1;
    QCheck_alcotest.to_alcotest prop_dominance_antisymmetric;
    QCheck_alcotest.to_alcotest prop_front0_mutually_incomparable;
    QCheck_alcotest.to_alcotest prop_ranks_consistent;
  ]
