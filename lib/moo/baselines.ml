module Prng = Repro_util.Prng

let random_search ~evaluations problem prng =
  if evaluations <= 0 then invalid_arg "Baselines.random_search: evaluations";
  Array.init evaluations (fun _ ->
      let x = Problem.random_point problem prng in
      { Nsga2.x; evaluation = problem.Problem.evaluate x })

type ws_options = {
  population : int;
  generations : int;
  mutation_sigma : float;
  elite : int;
}

let default_ws_options =
  { population = 40; generations = 40; mutation_sigma = 0.1; elite = 4 }

let scalarise ~weights ~normalise (e : Problem.evaluation) =
  if Problem.feasible e then begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        let n = if normalise.(i) <> 0.0 then Float.abs normalise.(i) else 1.0 in
        acc := !acc +. (w *. e.objectives.(i) /. n))
      weights;
    !acc
  end
  else 1e12 *. (1.0 +. e.constraint_violation)

let weighted_sum_ga ?(options = default_ws_options) ~weights ~normalise problem
    prng =
  let nv = Problem.n_vars problem in
  let eval x = { Nsga2.x; evaluation = problem.Problem.evaluate x } in
  let score ind = scalarise ~weights ~normalise ind.Nsga2.evaluation in
  let mutate x =
    Array.mapi
      (fun i v ->
        let lo, hi = problem.Problem.bounds.(i) in
        let step = options.mutation_sigma *. (hi -. lo) in
        Repro_util.Floatx.clamp ~lo ~hi (Prng.gaussian prng ~mean:v ~sigma:step))
      x
  in
  let blend a b =
    Array.init nv (fun i ->
        let t = Prng.uniform prng in
        Repro_util.Floatx.lerp a.(i) b.(i) t)
  in
  let pop =
    ref
      (Array.init options.population (fun _ ->
           eval (Problem.random_point problem prng)))
  in
  let by_score p = Array.sort (fun a b -> compare (score a) (score b)) p in
  by_score !pop;
  for _ = 1 to options.generations do
    let parents = Array.sub !pop 0 (Stdlib.max options.elite 2) in
    let children =
      Array.init options.population (fun i ->
          if i < options.elite then !pop.(i)
          else begin
            let a = Prng.pick prng parents and b = Prng.pick prng parents in
            eval (mutate (blend a.Nsga2.x b.Nsga2.x))
          end)
    in
    by_score children;
    pop := children
  done;
  !pop.(0)
