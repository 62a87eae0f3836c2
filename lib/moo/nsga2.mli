(** NSGA-II: elitist non-dominated-sorting genetic algorithm (Deb et al.),
    the optimiser the paper uses at both hierarchy levels (§3.2, §4.2,
    §4.5).  Real-coded: simulated-binary crossover (SBX) + polynomial
    mutation, binary tournament on (rank, crowding), (µ+λ) elitism. *)

type individual = {
  x : float array;
  evaluation : Problem.evaluation;
}

type options = {
  population : int;       (** even, >= 4 *)
  generations : int;
  crossover_prob : float;
  eta_crossover : float;  (** SBX distribution index *)
  mutation_prob : float;  (** per-variable; <= 0 means 1/n_vars *)
  eta_mutation : float;   (** polynomial-mutation distribution index *)
}

val default_options : options
(** population 100, generations 30 (the paper's §4.2 settings),
    pc 0.9 / ηc 15, pm 1/n / ηm 20. *)

val optimise :
  ?options:options ->
  ?evaluator:Problem.evaluator ->
  ?on_generation:(int -> individual array -> unit) ->
  Problem.t ->
  Repro_util.Prng.t ->
  individual array
(** Run the GA and return the final population.  Each generation's
    offspring are evaluated as one batch through [evaluator] (default:
    the serial path; pass {!Problem.parallel_evaluator} to spread
    evaluations over a domain pool and/or a cache — results are
    identical because all variation randomness is drawn before the
    batch is dispatched).  [on_generation g pop] is called with the
    initial population as generation 0 and after every generation (for
    progress logging and convergence traces).
    @raise Invalid_argument unless the population is even and >= 4. *)

val pareto_front : individual array -> individual array
(** Feasible rank-0 subset of a population, keeping one individual per
    objective vector (vectors compared element-wise as floats, so
    [-0.0] and [0.0] are equal). *)

val evaluations : individual array -> Problem.evaluation array

(* ---- building blocks shared with DE ---- *)

val eval_batch :
  Problem.evaluator -> Problem.t -> float array array -> individual array
(** Batch-evaluate raw decision vectors into individuals through the
    injected evaluation strategy — the one evaluation seam NSGA-II and
    {!De} share. *)

val select_best : int -> individual array -> individual array
(** NSGA-II environmental selection: the best [target] individuals by
    (non-domination rank, crowding distance).  Reused as the truncation
    operator by {!De}. *)
