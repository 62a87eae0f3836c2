(** Exact hypervolume indicator (minimisation).

    The dominated-region volume between a point set and a fixed
    reference point is the standard scalar convergence measure for
    multi-objective GA runs: it grows monotonically as the front
    approaches the true Pareto set, and comparing it generation by
    generation against one fixed reference tracks convergence (the
    journal's [ga.generation] events).

    It is exact and deterministic — no PRNG involved — so computing it
    mid-run cannot perturb results.  Points that do not strictly
    dominate the reference in every coordinate contribute nothing. *)

val exact : reference:float array -> float array array -> float
(** [exact ~reference points] for raw objective vectors; every point
    must have the reference's dimensionality (others are ignored only
    if shorter/longer — they are skipped by the domination filter).
    Worst-case O(n^(d-1) log n); meant for fronts of tens of points. *)

val of_front :
  ?dims:int array ->
  reference:float array ->
  Problem.evaluation array ->
  float
(** Hypervolume of the feasible points of a front.  [dims] selects a
    subset/permutation of objective indices first (e.g. the three
    headline objectives of a 5-objective problem); the reference is in
    the projected space. *)
