(** Multi-objective differential evolution: DE/rand/1/bin variation with
    DEMO-style selection (Robič & Filipič 2005) — each trial vector is
    compared to its parent under Deb constraint-domination
    ({!Pareto.compare_dominance}); incomparable trials are kept
    alongside their parents and NSGA-II (rank, crowding) truncation
    restores the population size.

    The flow's one alternative to {!Nsga2} ([Hieropt.Hierarchy.De],
    always behind the {!Surrogate} pre-screen): DE variants tend to need
    fewer evaluations than GAs on smooth analog-sizing landscapes
    (Rashid et al., arXiv:2310.12440). *)

type options = {
  population : int;   (** >= 5 (rand/1 needs 3 distinct donors) *)
  generations : int;
  f : float;          (** differential weight, in (0, 2] *)
  cr : float;         (** binomial crossover rate, in [0, 1] *)
}

val default_options : options
(** population 50, generations 30, f 0.5, cr 0.9. *)

val optimise :
  ?options:options ->
  ?evaluator:Problem.evaluator ->
  ?on_generation:(int -> Nsga2.individual array -> unit) ->
  Problem.t ->
  Repro_util.Prng.t ->
  Nsga2.individual array
(** Run DE and return the final population.  Each generation's trial
    vectors are evaluated as one batch through [evaluator], with all
    variation randomness drawn first — results are bit-identical for
    any worker count.  [on_generation g pop] is called with the initial
    population as generation 0 and after every generation.
    @raise Invalid_argument on out-of-range options. *)
