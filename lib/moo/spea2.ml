module Prng = Repro_util.Prng

type options = {
  population : int;
  archive : int;
  generations : int;
  crossover_prob : float;
  eta_crossover : float;
  mutation_prob : float;
  eta_mutation : float;
}

let default_options =
  {
    population = 100;
    archive = 100;
    generations = 30;
    crossover_prob = 0.9;
    eta_crossover = 15.0;
    mutation_prob = 0.0;
    eta_mutation = 20.0;
  }

(* Euclidean distance in objective space (the paper's density metric);
   infeasible individuals use their violation as a 1-D coordinate so they
   never cluster with feasible ones *)
let objective_distance (a : Problem.evaluation) (b : Problem.evaluation) =
  let da =
    if Problem.feasible a then a.Problem.objectives
    else [| 1e9 +. a.Problem.constraint_violation |]
  and db =
    if Problem.feasible b then b.Problem.objectives
    else [| 1e9 +. b.Problem.constraint_violation |]
  in
  if Array.length da <> Array.length db then 1e12
  else begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i x ->
        let d = x -. db.(i) in
        acc := !acc +. (d *. d))
      da;
    sqrt !acc
  end

(* SPEA2 fitness: raw dominated-strength plus kNN density *)
let fitness (pool : Nsga2.individual array) =
  let n = Array.length pool in
  let evals = Array.map (fun ind -> ind.Nsga2.evaluation) pool in
  let strength = Array.make n 0 in
  let dominators = Array.make n [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match Pareto.compare_dominance evals.(i) evals.(j) with
        | Pareto.Dominates ->
          strength.(i) <- strength.(i) + 1;
          dominators.(j) <- i :: dominators.(j)
        | Pareto.Dominated | Pareto.Incomparable -> ()
    done
  done;
  let k = int_of_float (sqrt (float_of_int n)) in
  Array.init n (fun i ->
      let raw =
        List.fold_left (fun acc j -> acc + strength.(j)) 0 dominators.(i)
      in
      let dists =
        Array.init n (fun j ->
            if i = j then infinity else objective_distance evals.(i) evals.(j))
      in
      Array.sort compare dists;
      let sigma_k = dists.(Stdlib.min k (n - 2)) in
      let density = 1.0 /. (sigma_k +. 2.0) in
      float_of_int raw +. density)

(* archive truncation: repeatedly drop the member with the smallest
   nearest-neighbour distance (ties broken by the next distance) *)
let truncate target (members : Nsga2.individual array) =
  let members = ref (Array.to_list members) in
  while List.length !members > target do
    let arr = Array.of_list !members in
    let n = Array.length arr in
    let dist_profile i =
      let d =
        Array.init n (fun j ->
            if i = j then infinity
            else
              objective_distance arr.(i).Nsga2.evaluation
                arr.(j).Nsga2.evaluation)
      in
      Array.sort compare d;
      d
    in
    let profiles = Array.init n dist_profile in
    let worst = ref 0 in
    for i = 1 to n - 1 do
      (* lexicographic comparison of distance profiles: smaller = denser *)
      if compare profiles.(i) profiles.(!worst) < 0 then worst := i
    done;
    members := List.filteri (fun i _ -> i <> !worst) !members
  done;
  Array.of_list !members

let environmental_selection target pool fit =
  let n = Array.length pool in
  let nondominated =
    List.filter (fun i -> fit.(i) < 1.0) (List.init n Fun.id)
  in
  let chosen =
    if List.length nondominated > target then
      truncate target
        (Array.of_list (List.map (fun i -> pool.(i)) nondominated))
    else begin
      (* fill with the best dominated individuals by fitness *)
      let order = Array.init n Fun.id in
      Array.sort (fun a b -> compare fit.(a) fit.(b)) order;
      Array.map (fun i -> pool.(i)) (Array.sub order 0 (Stdlib.min target n))
    end
  in
  chosen

let binary_tournament prng fit n =
  let a = Prng.int prng n and b = Prng.int prng n in
  if fit.(a) <= fit.(b) then a else b

(* one generation: environmental selection of the next archive from
   population ∪ archive, then mating on that archive; returns the new
   archive and the evaluated offspring *)
let generation ~options ~evaluator problem prng ~gen population archive =
  Repro_obs.Trace.span "spea2.generation"
    ~args:
      [ ("problem", problem.Problem.name); ("generation", string_of_int gen) ]
  @@ fun () ->
  let pm =
    if options.mutation_prob > 0.0 then options.mutation_prob
    else 1.0 /. float_of_int (Problem.n_vars problem)
  in
  let pool = Array.append population archive in
  let archive = environmental_selection options.archive pool (fitness pool) in
  let arch_fit = fitness archive in
  let na = Array.length archive in
  let children = ref [] in
  for _ = 1 to (options.population + 1) / 2 do
    let p1 = archive.(binary_tournament prng arch_fit na).Nsga2.x in
    let p2 = archive.(binary_tournament prng arch_fit na).Nsga2.x in
    let c1, c2 =
      Variation.crossover_pair prng ~bounds:problem.Problem.bounds
        ~crossover_prob:options.crossover_prob
        ~eta_crossover:options.eta_crossover p1 p2
    in
    Variation.mutate_in_place prng ~bounds:problem.Problem.bounds
      ~mutation_prob:pm ~eta_mutation:options.eta_mutation c1;
    Variation.mutate_in_place prng ~bounds:problem.Problem.bounds
      ~mutation_prob:pm ~eta_mutation:options.eta_mutation c2;
    children := c1 :: c2 :: !children
  done;
  let offspring =
    Nsga2.eval_batch evaluator problem (Array.of_list !children)
  in
  (archive, Array.sub offspring 0 options.population)

let optimise ?(options = default_options)
    ?(evaluator = Problem.serial_evaluator) problem prng =
  if options.population < 4 || options.archive < 2 then
    invalid_arg "Spea2.optimise: population >= 4 and archive >= 2 required";
  let initial =
    Array.init options.population (fun _ -> Problem.random_point problem prng)
  in
  let population = ref (Nsga2.eval_batch evaluator problem initial) in
  let archive = ref [||] in
  for gen = 1 to options.generations do
    let a, p =
      generation ~options ~evaluator problem prng ~gen !population !archive
    in
    archive := a;
    population := p
  done;
  !archive
