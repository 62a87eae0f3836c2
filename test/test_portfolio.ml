(* The optimiser portfolio (DE, the Optimiser registry) and the
   surrogate pre-screen *)
module M = Repro_moo
module O = Repro_moo.Optimiser
module E = Repro_engine
module Prng = Repro_util.Prng

let zdt1 n =
  M.Problem.create ~name:"zdt1"
    ~bounds:(Array.make n (0.0, 1.0))
    ~objective_names:[| "f1"; "f2" |]
    (fun x ->
      let f1 = x.(0) in
      let s = ref 0.0 in
      for i = 1 to n - 1 do
        s := !s +. x.(i)
      done;
      let g = 1.0 +. (9.0 *. !s /. float_of_int (n - 1)) in
      {
        M.Problem.objectives = [| f1; g *. (1.0 -. sqrt (f1 /. g)) |];
        constraint_violation = 0.0;
      })

(* an asymmetric box so bound violations cannot hide behind [0,1] *)
let boxed n =
  M.Problem.create ~name:"boxed"
    ~bounds:(Array.init n (fun i -> (-2.0 -. float_of_int i, 1.5)))
    ~objective_names:[| "f1"; "f2" |]
    (fun x ->
      {
        M.Problem.objectives =
          [| x.(0); Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x |];
        constraint_violation = 0.0;
      })

let objectives pop =
  Array.map (fun i -> i.M.Nsga2.evaluation.M.Problem.objectives) pop

let in_bounds problem pop =
  let bounds = problem.M.Problem.bounds in
  Array.for_all
    (fun ind ->
      let x = ind.M.Nsga2.x in
      Array.length x = Array.length bounds
      && Array.for_all
           (fun j ->
             let lo, hi = bounds.(j) in
             x.(j) >= lo && x.(j) <= hi)
           (Array.init (Array.length bounds) Fun.id))
    pop

(* ---- registry ---- *)

let test_registry () =
  Alcotest.(check (list string))
    "names" [ "nsga2"; "de" ] O.names;
  List.iter
    (fun n ->
      match O.of_name n with
      | None -> Alcotest.failf "of_name %s" n
      | Some o -> Alcotest.(check string) "name roundtrip" n (O.name o))
    O.names;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " rejected") true (O.of_name n = None))
    [ "cmaes"; "spea2"; "mopso" ]

let test_every_member_runs () =
  let problem = zdt1 5 in
  List.iter
    (fun (name, opt) ->
      let pop =
        O.optimise opt
          ~options:{ O.population = 12; generations = 3 }
          problem (Prng.create 5)
      in
      if Array.length pop = 0 then Alcotest.failf "%s: empty population" name;
      if Array.length (M.Nsga2.pareto_front pop) = 0 then
        Alcotest.failf "%s: empty front" name;
      if not (in_bounds problem pop) then
        Alcotest.failf "%s: escaped the bounds" name)
    O.all

(* ---- convergence (the portfolio members actually optimise) ---- *)

let test_de_converges_zdt1 () =
  let final =
    M.De.optimise
      ~options:{ M.De.default_options with population = 40; generations = 60 }
      (zdt1 8) (Prng.create 3)
  in
  let front = M.Nsga2.pareto_front final in
  Alcotest.(check bool) "large front" true (Array.length front > 15);
  let errs =
    Array.map
      (fun ind ->
        let o = ind.M.Nsga2.evaluation.M.Problem.objectives in
        Float.abs (o.(1) -. (1.0 -. sqrt o.(0))))
      front
  in
  Alcotest.(check bool) "near analytic front" true
    (Repro_util.Stats.mean errs < 0.05)

let test_invalid_options () =
  let check name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  check "de: population < 5" (fun () ->
      M.De.optimise
        ~options:{ M.De.default_options with population = 4 }
        (zdt1 3) (Prng.create 1));
  check "de: f out of range" (fun () ->
      M.De.optimise
        ~options:{ M.De.default_options with f = 0.0 }
        (zdt1 3) (Prng.create 1))

(* ---- QCheck properties ---- *)

let seed_gen = QCheck.int_range 0 10_000

let prop_de_bounds =
  QCheck.Test.make ~name:"DE population stays inside the design box"
    ~count:20 seed_gen (fun seed ->
      let problem = boxed 4 in
      let final =
        M.De.optimise
          ~options:
            { M.De.default_options with population = 10; generations = 4 }
          problem (Prng.create seed)
      in
      in_bounds problem final)

let prop_optimise_is_init_plus_steps =
  QCheck.Test.make
    ~name:"optimise = init + steps, bit-exactly, for every member"
    ~count:10 seed_gen (fun seed ->
      let problem = zdt1 4 in
      let options = { O.population = 10; generations = 3 } in
      List.for_all
        (fun (_, opt) ->
          let direct =
            O.optimise opt ~options problem (Prng.create seed)
          in
          let module A = (val opt : O.S) in
          let st =
            A.init ~options ~evaluator:M.Problem.serial_evaluator problem
              (Prng.create seed)
          in
          while A.generation st < options.O.generations do
            A.step ~evaluator:M.Problem.serial_evaluator problem st
          done;
          objectives direct = objectives (A.population st))
        O.all)

let prop_worker_count_invariance =
  QCheck.Test.make
    ~name:"1-worker and 4-worker evaluation are bit-identical (DE)"
    ~count:5 seed_gen (fun seed ->
      let problem = zdt1 4 in
      let options = { O.population = 10; generations = 3 } in
      let opt = Option.get (O.of_name "de") in
      let run n =
        E.Pool.with_pool ~size:n (fun pool ->
            let evaluator = M.Problem.parallel_evaluator ~pool () in
            objectives
              (O.optimise opt ~options ~evaluator problem (Prng.create seed)))
      in
      run 1 = run 4)

let prop_surrogate_guard_band =
  (* the false-reject guarantee: a candidate whose guarded prediction is
     not dominated by any archive-front member is always evaluated *)
  QCheck.Test.make
    ~name:"surrogate never screens out a guard-band-non-dominated candidate"
    ~count:30 seed_gen (fun seed ->
      let problem = zdt1 4 in
      let prng = Prng.create seed in
      let s =
        M.Surrogate.create
          ~options:{ M.Surrogate.default_options with min_points = 8 }
          ()
      in
      let batch n = Array.init n (fun _ -> M.Problem.random_point problem prng) in
      let seedpts = batch 16 in
      M.Surrogate.observe s seedpts
        (M.Problem.serial_evaluator problem seedpts);
      let candidates = batch 12 in
      match
        ( M.Surrogate.screen s problem candidates,
          M.Surrogate.guarded_predictions s problem candidates )
      with
      | None, _ | _, None -> false (* archive is past min_points *)
      | Some verdicts, Some preds ->
        let front_evs =
          Array.map snd (M.Surrogate.archive s) |> fun evs ->
          Array.map (fun i -> evs.(i)) (M.Pareto.non_dominated evs)
        in
        let dominated p =
          Array.exists
            (fun f -> M.Pareto.compare_dominance f p = M.Pareto.Dominates)
            front_evs
        in
        Array.for_all2
          (fun keep pred -> keep || dominated pred)
          verdicts preds)

(* ---- surrogate wrap semantics ---- *)

let test_surrogate_warmup_pays_all () =
  let problem = zdt1 4 in
  let prng = Prng.create 11 in
  let s =
    M.Surrogate.create
      ~options:{ M.Surrogate.default_options with min_points = 64 }
      ()
  in
  let evaluator = M.Surrogate.wrap s M.Problem.serial_evaluator in
  let pts = Array.init 10 (fun _ -> M.Problem.random_point problem prng) in
  let evs = evaluator problem pts in
  Alcotest.(check bool) "below min_points nothing is screened" true
    (Array.for_all (fun e -> not (M.Surrogate.is_rejected e)) evs);
  Alcotest.(check int) "all observed" 10 (M.Surrogate.size s);
  Alcotest.(check bool) "wrap = exact evaluation" true
    (evs = M.Problem.serial_evaluator problem pts)

let test_rejected_marker_never_reaches_front () =
  let problem = zdt1 4 in
  let rejected = M.Surrogate.rejected_evaluation problem in
  Alcotest.(check bool) "marker is flagged" true
    (M.Surrogate.is_rejected rejected);
  let real = M.Problem.serial_evaluator problem [| [| 0.5; 0.5; 0.5; 0.5 |] |] in
  Alcotest.(check bool) "any exact evaluation dominates the marker" true
    (M.Pareto.compare_dominance real.(0) rejected = M.Pareto.Dominates);
  Alcotest.(check bool) "two markers are incomparable" true
    (M.Pareto.compare_dominance rejected rejected = M.Pareto.Incomparable)

let test_surrogate_screens_dominated_region () =
  (* archive the good corner of a linear problem, then screen a batch
     from the far (dominated) corner: with a well-separated geometry the
     surrogate must avoid at least part of the bad batch *)
  let problem =
    M.Problem.create ~name:"linear"
      ~bounds:[| (0.0, 1.0); (0.0, 1.0) |]
      ~objective_names:[| "f1"; "f2" |]
      (fun x ->
        {
          M.Problem.objectives = [| x.(0); x.(1) |];
          constraint_violation = 0.0;
        })
  in
  let s =
    M.Surrogate.create
      ~options:{ M.Surrogate.default_options with min_points = 8; guard = 0.05 }
      ()
  in
  let grid =
    Array.init 25 (fun i ->
        [| 0.2 *. float_of_int (i mod 5); 0.2 *. float_of_int (i / 5) |])
  in
  M.Surrogate.observe s grid (M.Problem.serial_evaluator problem grid);
  let evaluator = M.Surrogate.wrap s M.Problem.serial_evaluator in
  let bad = Array.init 6 (fun i -> [| 0.8; 0.7 +. (0.05 *. float_of_int i) |]) in
  let evs = evaluator problem bad in
  Alcotest.(check bool) "deep-dominated candidates are screened out" true
    (Array.exists M.Surrogate.is_rejected evs);
  (* and a batch near the ideal corner sails through *)
  let good = [| [| 0.01; 0.02 |]; [| 0.0; 0.0 |] |] in
  let evs = evaluator problem good in
  Alcotest.(check bool) "non-dominated candidates are paid" true
    (Array.for_all (fun e -> not (M.Surrogate.is_rejected e)) evs)

(* ---- resume by re-running over the eval cache ---- *)

exception Stop

(* DE behind the surrogate pre-screen, as the flow runs it: a run
   stopped after generation 2 and then run again over the same cache
   must end with the uninterrupted run's population and avoided/paid
   split, simulating only what the first run did not finish *)
let test_de_resume () =
  let problem = zdt1 4 in
  let options = { O.population = 10; generations = 6 } in
  let de = Option.get (O.of_name "de") in
  let run ?stop_after cache =
    let evaluator =
      M.Surrogate.wrap (M.Surrogate.create ())
        (M.Problem.parallel_evaluator ~cache ())
    in
    O.optimise de ~options ~evaluator
      ~on_generation:(fun g _ -> if Some g = stop_after then raise Stop)
      problem (Prng.create 3)
  in
  let counted f =
    let names = [ "eval.runs"; "eval.avoided"; "eval.paid" ] in
    let c0 = List.map E.Telemetry.counter names in
    let r = f () in
    (r, List.map2 (fun n c -> E.Telemetry.counter n - c) names c0)
  in
  let full, full_counts = counted (fun () -> run (E.Cache.create ())) in
  let cache = E.Cache.create () in
  let (), first_counts =
    counted (fun () ->
        match run ~stop_after:2 cache with
        | _ -> Alcotest.fail "expected the run to stop"
        | exception Stop -> ())
  in
  let resumed, rest_counts = counted (fun () -> run cache) in
  Alcotest.(check bool) "interrupted + re-run = uninterrupted, bit-exactly" true
    (objectives full = objectives resumed
    && Array.for_all2 (fun a b -> a.M.Nsga2.x = b.M.Nsga2.x) full resumed);
  match (full_counts, first_counts, rest_counts) with
  | [ full_runs; full_avoided; full_paid ], [ first_runs; _; _ ],
    [ rest_runs; rest_avoided; rest_paid ] ->
    Alcotest.(check bool) "the first run simulated something" true
      (first_runs > 0 && first_runs < full_runs);
    Alcotest.(check int) "no finished evaluation simulated again" full_runs
      (first_runs + rest_runs);
    Alcotest.(check (pair int int)) "the re-run's avoided/paid split"
      (full_avoided, full_paid) (rest_avoided, rest_paid)
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "every member runs" `Quick test_every_member_runs;
    Alcotest.test_case "DE converges on ZDT1" `Quick test_de_converges_zdt1;
    Alcotest.test_case "invalid options" `Quick test_invalid_options;
    QCheck_alcotest.to_alcotest prop_de_bounds;
    QCheck_alcotest.to_alcotest prop_optimise_is_init_plus_steps;
    QCheck_alcotest.to_alcotest prop_worker_count_invariance;
    QCheck_alcotest.to_alcotest prop_surrogate_guard_band;
    Alcotest.test_case "surrogate warmup pays all" `Quick
      test_surrogate_warmup_pays_all;
    Alcotest.test_case "rejected marker semantics" `Quick
      test_rejected_marker_never_reaches_front;
    Alcotest.test_case "surrogate screens dominated region" `Quick
      test_surrogate_screens_dominated_region;
    Alcotest.test_case "DE interrupt/resume bit-identical" `Quick
      test_de_resume;
  ]
