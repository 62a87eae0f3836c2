(** SPEA2 (Zitzler, Laumanns, Thiele 2001): strength-Pareto evolutionary
    algorithm with a fixed-size external archive, k-nearest-neighbour
    density estimation and archive truncation.

    Provided as a second multi-objective optimiser over the same
    {!Problem} abstraction — the optimiser-choice ablation in the bench
    compares it with {!Nsga2} on the system-level problem.  It is not a
    flow optimiser.  Constraint
    handling reuses {!Pareto.compare_dominance} (Deb constraint
    domination). *)

type options = {
  population : int;
  archive : int;       (** external archive size (the returned front) *)
  generations : int;
  crossover_prob : float;
  eta_crossover : float;
  mutation_prob : float;  (** <= 0 means 1/n_vars *)
  eta_mutation : float;
}

val default_options : options
(** population 100, archive 100, generations 30, same variation settings
    as {!Nsga2.default_options}. *)

val optimise :
  ?options:options ->
  ?evaluator:Problem.evaluator ->
  Problem.t ->
  Repro_util.Prng.t ->
  Nsga2.individual array
(** Run SPEA2 and return the final archive (use {!Nsga2.pareto_front} to
    extract the feasible non-dominated subset).  [evaluator] batches
    each generation's evaluations exactly as in {!Nsga2.optimise}.
    @raise Invalid_argument unless population >= 4 and archive >= 2. *)
