module Prng = Repro_util.Prng

type individual = {
  x : float array;
  evaluation : Problem.evaluation;
}

type options = {
  population : int;
  generations : int;
  crossover_prob : float;
  eta_crossover : float;
  mutation_prob : float;
  eta_mutation : float;
}

let default_options =
  {
    population = 100;
    generations = 30;
    crossover_prob = 0.9;
    eta_crossover = 15.0;
    mutation_prob = 0.0;
    eta_mutation = 20.0;
  }

let evaluations pop = Array.map (fun ind -> ind.evaluation) pop

(* (rank, crowding) tournament comparison: lower rank wins; ties by
   larger crowding distance *)
let tournament prng ranks crowd pop =
  let n = Array.length pop in
  let a = Prng.int prng n and b = Prng.int prng n in
  if ranks.(a) < ranks.(b) then a
  else if ranks.(b) < ranks.(a) then b
  else if crowd.(a) > crowd.(b) then a
  else b

(* per-individual crowding over the whole population, front by front *)
let population_crowding evals fronts =
  let crowd = Array.make (Array.length evals) 0.0 in
  Array.iter
    (fun front ->
      let d = Pareto.crowding_distance evals front in
      Array.iteri (fun k i -> crowd.(i) <- d.(k)) front)
    fronts;
  crowd

(* environmental selection: best [target] individuals by (rank, crowding) *)
let select_best target pop =
  let evals = evaluations pop in
  let ranks, fronts = Pareto.non_dominated_sort evals in
  let crowd = population_crowding evals fronts in
  let order = Array.init (Array.length pop) (fun i -> i) in
  Array.sort
    (fun a b ->
      if ranks.(a) <> ranks.(b) then compare ranks.(a) ranks.(b)
      else compare crowd.(b) crowd.(a))
    order;
  Array.init target (fun k -> pop.(order.(k)))

(* batch-evaluate raw decision vectors into individuals, via the
   injected evaluation strategy (parallel pools, caches, ...) *)
let eval_batch evaluator problem xs =
  let evs = Problem.evaluate_all ~evaluator problem xs in
  Array.map2 (fun x evaluation -> { x; evaluation }) xs evs

let optimise ?(options = default_options)
    ?(evaluator = Problem.serial_evaluator) ?on_generation problem prng =
  if options.population < 4 || options.population mod 2 <> 0 then
    invalid_arg "Nsga2.optimise: population must be even and >= 4";
  let pm =
    if options.mutation_prob > 0.0 then options.mutation_prob
    else 1.0 /. float_of_int (Problem.n_vars problem)
  in
  (* one generation: offspring by tournament + SBX + mutation, then
     (µ+λ) environmental selection *)
  let next_generation g pop =
    Repro_obs.Trace.span "nsga2.generation"
      ~args:
        [ ("problem", problem.Problem.name); ("generation", string_of_int g) ]
    @@ fun () ->
    let evals = evaluations pop in
    let ranks, fronts = Pareto.non_dominated_sort evals in
    let crowd = population_crowding evals fronts in
    let children = ref [] in
    for _ = 1 to options.population / 2 do
      let p1 = pop.(tournament prng ranks crowd pop).x in
      let p2 = pop.(tournament prng ranks crowd pop).x in
      let c1, c2 =
        Variation.crossover_pair prng ~bounds:problem.Problem.bounds
          ~crossover_prob:options.crossover_prob
          ~eta_crossover:options.eta_crossover p1 p2
      in
      let mutate c =
        Variation.mutate_in_place prng ~bounds:problem.Problem.bounds
          ~mutation_prob:pm ~eta_mutation:options.eta_mutation c
      in
      mutate c1;
      mutate c2;
      children := c1 :: c2 :: !children
    done;
    let offspring = eval_batch evaluator problem (Array.of_list !children) in
    select_best options.population (Array.append pop offspring)
  in
  let notify g pop = Option.iter (fun f -> f g pop) on_generation in
  (* decision vectors are drawn serially (PRNG order is part of the
     reproducibility contract); only the pure evaluations are batched *)
  let initial =
    Array.init options.population (fun _ -> Problem.random_point problem prng)
  in
  let pop = ref (eval_batch evaluator problem initial) in
  notify 0 !pop;
  for g = 1 to options.generations do
    pop := next_generation g !pop;
    notify g !pop
  done;
  !pop

let pareto_front pop =
  let evals = evaluations pop in
  let front = Pareto.non_dominated evals in
  let keep =
    Array.to_list front
    |> List.filter (fun i -> Problem.feasible evals.(i))
    |> List.map (fun i -> pop.(i))
  in
  (* deduplicate identical objective vectors: structural equality on
     the float arrays, so -0.0 and 0.0 are one value *)
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun ind ->
        let key = ind.evaluation.Problem.objectives in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      keep
  in
  Array.of_list unique
