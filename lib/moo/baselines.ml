let random_search ~evaluations problem prng =
  if evaluations <= 0 then invalid_arg "Baselines.random_search: evaluations";
  Array.init evaluations (fun _ ->
      let x = Problem.random_point problem prng in
      { Nsga2.x; evaluation = problem.Problem.evaluate x })
