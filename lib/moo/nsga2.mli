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
    batch is dispatched).  [on_generation] is called after each
    generation with the current population (for progress logging and
    convergence traces).

    [optimise] is [init] followed by [generations] calls to [step] —
    the step-wise API below gives callers the same loop one generation
    at a time, for checkpointing. *)

(* ---- step-wise API (checkpointable generation loop) ---- *)

type state
(** A paused GA: options, the evolving PRNG, the generation counter and
    the current (already evaluated) population. *)

val init :
  ?options:options ->
  ?evaluator:Problem.evaluator ->
  Problem.t ->
  Repro_util.Prng.t ->
  state
(** Draw and evaluate the initial population (generation 0).
    @raise Invalid_argument unless the population is even and >= 4. *)

val step : ?evaluator:Problem.evaluator -> Problem.t -> state -> unit
(** Advance one generation.  [optimise] ≡ [init] + [generations] × [step]
    bit-exactly. *)

val generation : state -> int
val population : state -> individual array

(* ---- state serialisation (resume support) ---- *)

val save_state : state -> Repro_engine.Snapshot.t -> key:string -> unit
(** Store generation counter, PRNG state and population under
    [key ^ ".generation" / ".prng" / ".population"].  A restored state
    continues bit-identically to the saved one. *)

val restore_state :
  options:options ->
  Problem.t ->
  Repro_engine.Snapshot.t ->
  key:string ->
  state option
(** [None] when the keys are absent or the stored state is malformed /
    inconsistent with [options] and the problem's arity (callers then
    cold-start). *)

val clear_state : Repro_engine.Snapshot.t -> key:string -> unit
(** Drop the three state keys (after the phase's final artefact has been
    persisted, to keep snapshots small). *)

val pareto_front : individual array -> individual array
(** Feasible rank-0 subset of a population, deduplicated on objective
    vectors. *)

val evaluations : individual array -> Problem.evaluation array

(* ---- building blocks shared by the optimiser portfolio ---- *)

val eval_batch :
  Problem.evaluator -> Problem.t -> float array array -> individual array
(** Batch-evaluate raw decision vectors into individuals through the
    injected evaluation strategy — the one evaluation seam every
    population-based optimiser ({!De}, {!Spea2}) shares. *)

val select_best : int -> individual array -> individual array
(** NSGA-II environmental selection: the best [target] individuals by
    (non-domination rank, crowding distance).  Reused as the truncation
    operator by {!De}. *)

val encode_individual : individual -> float array
(** One flat snapshot row: x | constraint_violation | objectives. *)

val decode_individual : n_vars:int -> float array -> individual option
(** Inverse of {!encode_individual}; [None] when the row is too short
    for [n_vars]. *)
