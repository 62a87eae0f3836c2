module Prng = Repro_util.Prng

type options = {
  population : int;
  generations : int;
  f : float;
  cr : float;
}

let default_options = { population = 50; generations = 30; f = 0.5; cr = 0.9 }

type state = {
  options : options;
  prng : Prng.t;
  mutable generation : int;
  mutable population : Nsga2.individual array;
}

let generation st = st.generation
let population st = st.population

let validate (options : options) =
  (* rand/1 needs the target plus three mutually distinct donors *)
  if options.population < 5 then
    invalid_arg "De: population must be >= 5 (DE/rand/1 donor indices)";
  if not (options.f > 0.0 && options.f <= 2.0) then
    invalid_arg "De: differential weight f must be in (0, 2]";
  if not (options.cr >= 0.0 && options.cr <= 1.0) then
    invalid_arg "De: crossover rate cr must be in [0, 1]"

let init ?(options = default_options) ?(evaluator = Problem.serial_evaluator)
    problem prng =
  validate options;
  (* decision vectors are drawn serially (PRNG order is part of the
     reproducibility contract); only the pure evaluations are batched *)
  let initial = Array.make options.population [||] in
  for i = 0 to options.population - 1 do
    initial.(i) <- Problem.random_point problem prng
  done;
  { options; prng; generation = 0;
    population = Nsga2.eval_batch evaluator problem initial }

let step ?(evaluator = Problem.serial_evaluator) problem st =
  Repro_obs.Trace.span "de.generation"
    ~args:
      [
        ("problem", problem.Problem.name);
        ("generation", string_of_int (st.generation + 1));
      ]
  @@ fun () ->
  let options = st.options and prng = st.prng in
  let np = options.population in
  let n = Problem.n_vars problem in
  let bounds = problem.Problem.bounds in
  let pop = st.population in
  let trials = Array.make np [||] in
  for i = 0 to np - 1 do
    let rec draw excl =
      let r = Prng.int prng np in
      if List.mem r excl then draw excl else r
    in
    let r1 = draw [ i ] in
    let r2 = draw [ i; r1 ] in
    let r3 = draw [ i; r1; r2 ] in
    (* binomial crossover: at least the forced [jrand] component comes
       from the mutant, the rest with probability cr *)
    let jrand = Prng.int prng n in
    let trial = Array.copy pop.(i).Nsga2.x in
    for j = 0 to n - 1 do
      let cross = Prng.float prng 1.0 < options.cr in
      if cross || j = jrand then begin
        let lo, hi = bounds.(j) in
        let v =
          pop.(r1).Nsga2.x.(j)
          +. (options.f *. (pop.(r2).Nsga2.x.(j) -. pop.(r3).Nsga2.x.(j)))
        in
        trial.(j) <- Repro_util.Floatx.clamp ~lo ~hi v
      end
    done;
    trials.(i) <- trial
  done;
  let evaluated = Nsga2.eval_batch evaluator problem trials in
  (* DEMO-style selection (Robič & Filipič 2005): each trial is compared
     to its parent under Deb constraint-domination — it replaces a
     dominated parent, is discarded when dominated itself, and is
     appended when incomparable; NSGA-II (rank, crowding) truncation
     then restores the population size *)
  let next = ref [] in
  for i = np - 1 downto 0 do
    let parent = pop.(i) and trial = evaluated.(i) in
    match
      Pareto.compare_dominance trial.Nsga2.evaluation parent.Nsga2.evaluation
    with
    | Pareto.Dominates -> next := trial :: !next
    | Pareto.Dominated -> next := parent :: !next
    | Pareto.Incomparable -> next := parent :: trial :: !next
  done;
  let combined = Array.of_list !next in
  st.population <-
    (if Array.length combined > np then Nsga2.select_best np combined
     else combined);
  st.generation <- st.generation + 1

let optimise ?options ?evaluator ?on_generation problem prng =
  let st = init ?options ?evaluator problem prng in
  (match on_generation with Some f -> f 0 st.population | None -> ());
  while st.generation < st.options.generations do
    step ?evaluator problem st;
    match on_generation with
    | Some f -> f st.generation st.population
    | None -> ()
  done;
  st.population
