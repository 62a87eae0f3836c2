(** Left-looking (Gilbert–Peierls) sparse LU with partial pivoting,
    split into a one-off {e symbolic} analysis and a cheap {e numeric}
    refactorisation.

    MNA systems keep a fixed sparsity pattern across Newton iterations,
    timesteps and Monte-Carlo samples of the same netlist, so the
    expensive part — reachability DFS, fill-in discovery and pivot-order
    selection — runs once per circuit topology ({!factorise}) and every
    later solve only refills numbers along the frozen pattern
    ({!refactorise}: no search, no allocation, a single pass over the
    stored L/U columns).

    Pivot-tolerance semantics are shared with the dense kernel
    ({!Lu.pivot_threshold}): a column whose best pivot falls below the
    threshold relative to its pre-elimination magnitude raises
    {!Singular} with the same column diagnostic the dense path would
    give.  A refactorisation reuses the pivot {e order} chosen by the
    symbolic phase; if drifted values make a frozen pivot unacceptable
    it raises {!Singular} and the caller should fall back to a fresh
    {!factorise}. *)

type symbolic
(** Immutable: fill pattern, elimination (pivot) order, and the
    CSC traversal of the input pattern.  Safe to share across domains. *)

type numeric
(** Mutable L/U values plus scratch, sized by a [symbolic].  One per
    worker; never share across threads. *)

exception Singular of int
(** Column [i] has no pivot above the shared relative tolerance. *)

val factorise : Sparse.t -> symbolic * numeric
(** Full factorisation: symbolic analysis with partial pivoting driven
    by the matrix values, plus the numeric factors.
    @raise Singular on numerically singular input. *)

val create_numeric : symbolic -> numeric
(** Fresh (unfactorised) numeric workspace; fill it with
    {!refactorise} before solving. *)

val refactorise : numeric -> Sparse.t -> unit
(** Recompute the numeric factors of a same-pattern matrix along the
    frozen symbolic pattern and pivot order.
    @raise Singular when a frozen pivot falls below tolerance (caller
    should re-run {!factorise});
    @raise Invalid_argument when the pattern does not match. *)

val symbolic : numeric -> symbolic

val solve_into : numeric -> b:float array -> x:float array -> unit
(** Solve [A x = b] against the current factors.  [b] and [x] must be
    distinct arrays of size n. *)

val solve : numeric -> float array -> float array
(** Allocating wrapper over {!solve_into}. *)

val det : numeric -> float
(** Determinant from the factors (permutation sign included). *)

(** {2 Shared symbolic registry}

    Monte-Carlo samples and pool workers compile structurally identical
    netlists; the registry lets them share one symbolic analysis, keyed
    by the pattern fingerprint (verified against the actual pattern, so
    a hash collision can never return a wrong symbolic).  The table is
    mutex-protected and the stored values are immutable — workers share
    nothing mutable.  Bounded FIFO eviction keeps it small. *)

val find_symbolic : Sparse.t -> symbolic option
val store_symbolic : Sparse.t -> symbolic -> unit

val find_or_factorise :
  Sparse.t ->
  factorise:(Sparse.t -> symbolic * numeric) ->
  symbolic * numeric option
(** [find_or_factorise a ~factorise] returns the registry's symbolic
    for [a]'s pattern.  On a miss it runs [factorise a] (normally
    {!factorise}, perhaps timed by the caller), stores the symbolic and
    returns the numeric factors of [a] too.  Lookup, analysis and store
    happen under the registry lock, so domains that miss on the same
    pattern at once run the analysis once; the others wait and get
    [(sym, None)].
    @raise Singular when [factorise] does (nothing is stored). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!find_symbolic} since start/clear. *)

val clear_cache : unit -> unit
(** Drop all cached symbolics and reset stats (tests, bench). *)
