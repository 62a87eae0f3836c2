(** Pareto dominance, fast non-dominated sorting, crowding distance and
    front-quality indicators — the machinery behind NSGA-II (Deb 2001)
    and the evaluation metrics used in the benches. *)

type dominance = Dominates | Dominated | Incomparable

val compare_dominance : Problem.evaluation -> Problem.evaluation -> dominance
(** Deb constraint-domination: a feasible point dominates an infeasible
    one; between infeasible points, lower violation dominates; between
    feasible points, standard Pareto dominance over the objective
    vectors. *)

val non_dominated_sort : Problem.evaluation array -> int array * int array array
(** [(ranks, fronts)]: [ranks.(i)] is the 0-based front index of point
    [i]; [fronts.(k)] lists the point indices of front [k] in input
    order.  O(M N²) fast non-dominated sort. *)

val crowding_distance :
  Problem.evaluation array -> int array -> float array
(** [crowding_distance evals front] returns one distance per member of
    [front] (boundary points get [infinity]). *)

val non_dominated : Problem.evaluation array -> int array
(** Indices of front 0 only. *)

val hypervolume_2d :
  reference:float array -> Problem.evaluation array -> float
(** Exact hypervolume of the minimisation front w.r.t. [reference]
    (points not strictly dominating the reference are ignored).
    @raise Invalid_argument unless all points have 2 objectives. *)

val spread_2d : Problem.evaluation array -> float
(** Deb's ∆ spread/diversity metric on a 2-objective front (lower is
    better). Returns 0 for fronts with < 3 points. *)
