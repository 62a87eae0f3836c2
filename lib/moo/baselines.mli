(** Baseline optimisers the benches compare NSGA-II against.

    The paper's background (§2, [11], [12]) frames NSGA-II against the
    classical alternatives: pure random exploration of the design space
    and scalarised (weighted-sum) single-objective search.  Both are
    implemented over the same {!Problem} abstraction so a comparison is
    one function call. *)

val random_search :
  evaluations:int ->
  Problem.t ->
  Repro_util.Prng.t ->
  Nsga2.individual array
(** Uniform sampling of the design box; returns all evaluated points
    (take the front with {!Nsga2.pareto_front}). *)

type ws_options = {
  population : int;
  generations : int;
  mutation_sigma : float;  (** Gaussian step, fraction of the box span *)
  elite : int;
}

val default_ws_options : ws_options

val weighted_sum_ga :
  ?options:ws_options ->
  weights:float array ->
  normalise:float array ->
  Problem.t ->
  Repro_util.Prng.t ->
  Nsga2.individual
(** Single-objective (µ+λ) evolution strategy on
    sum_i w_i * f_i(x) / normalise_i, with a large penalty for
    constraint violation.  Returns the best individual found. *)
