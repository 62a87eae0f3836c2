(** Random search, the baseline [examples/vco_sizing.ml] compares
    NSGA-II against.

    The paper's background (§2, [11], [12]) frames NSGA-II against pure
    random exploration of the design space; it runs over the same
    {!Problem} abstraction, so a comparison is one function call. *)

val random_search :
  evaluations:int ->
  Problem.t ->
  Repro_util.Prng.t ->
  Nsga2.individual array
(** Uniform sampling of the design box; returns all evaluated points
    (take the front with {!Nsga2.pareto_front}). *)
