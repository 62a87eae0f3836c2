(** Multi-objective optimisation problems (the paper's equation (1)).

    All objectives are {e minimised}; wrap maximised quantities with a
    sign flip.  Constraints are folded into a single non-negative
    violation amount so selection can use Deb's constraint-domination. *)

type evaluation = {
  objectives : float array;       (** to minimise *)
  constraint_violation : float;   (** 0 when feasible, > 0 otherwise *)
}

val feasible : evaluation -> bool

type batch =
  ?pool:Repro_engine.Pool.t ->
  ?busy:Repro_obs.Histogram.t ->
  float array array ->
  evaluation array
(** A whole batch evaluated in one call: one evaluation per input, in
    input order, each equal to what the problem's point evaluation
    gives.  It spreads its work over [pool] (default: the shared pool)
    as it sees fit and, given [busy], observes into it the duration of
    each piece of work it runs, so that the observations sum to its
    busy time on every domain. *)

type t = {
  name : string;
  bounds : (float * float) array;      (** per-variable (lo, hi) box *)
  objective_names : string array;
  evaluate : float array -> evaluation;
  evaluate_batch : batch option;
      (** [None] for a problem evaluated point by point *)
}

val n_vars : t -> int
val n_objectives : t -> int

val create :
  name:string ->
  bounds:(float * float) array ->
  objective_names:string array ->
  (float array -> evaluation) ->
  t
(** A problem evaluated point by point.
    @raise Invalid_argument on empty bounds/objectives or inverted
    bounds. *)

val create_batched :
  name:string ->
  bounds:(float * float) array ->
  objective_names:string array ->
  batch ->
  t
(** A problem whose evaluation runs faster over a batch than point by
    point; its [evaluate x] is the batch of one, [[| x |]].
    @raise Invalid_argument as {!create}. *)

val clamp : t -> float array -> float array
(** Project a decision vector into the box. *)

val random_point : t -> Repro_util.Prng.t -> float array

type evaluator = t -> float array array -> evaluation array
(** Batch evaluation strategy.  Must return one evaluation per input, in
    input order, equal to what [t.evaluate] would return — optimisers
    inject these to parallelise/memoise without changing results.  A
    strategy may hand a whole batch to [t.evaluate_batch] when the
    problem has one: its evaluations are [t.evaluate]'s by contract. *)

val serial_evaluator : evaluator
(** The reference strategy: [t.evaluate] applied left to right. *)

val evaluate_all : ?evaluator:evaluator -> t -> float array array -> evaluation array
(** Batch entry point; defaults to {!serial_evaluator}. *)

val parallel_evaluator :
  ?pool:Repro_engine.Pool.t ->
  ?cache:Repro_engine.Cache.t ->
  ?salt:string ->
  unit ->
  evaluator
(** Evaluate batches across a domain pool (default: the shared pool, so
    [-j] / [HIEROPT_JOBS] applies): a problem's [evaluate_batch] gets
    a batch's evaluations (its cache misses, with [cache]) in one call,
    any other problem's [evaluate] is mapped over the pool point by
    point.  Optionally memoised through a content-addressed
    {!Repro_engine.Cache} keyed on (decision vector,
    problem name, [salt]).  [salt] should fingerprint any ambient
    configuration the objective closure captures (spec, measurement
    options) so persisted caches cannot alias across set-ups.  For pure
    objectives the result is bit-identical to {!serial_evaluator} for
    any worker count.  A cached value of the wrong length for [t] (a
    truncated cache line) counts as a miss and is evaluated afresh.
    Reports [eval.runs] / [eval.cache_hits] / [eval.wall] telemetry,
    and observes the busy time of the evaluations into the
    [eval.duration] histogram: one observation per point, or per piece
    of work a batch evaluation runs. *)
