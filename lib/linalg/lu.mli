(** LU decomposition with partial pivoting, the linear kernel of the
    circuit simulator's Newton iterations. *)

type factorisation

exception Singular of int
(** Raised when a pivot column [i] has no usable pivot (matrix is
    numerically singular). *)

val pivot_threshold : col_max:float -> float
(** Smallest acceptable pivot magnitude for a column whose largest
    pre-elimination entry is [col_max]: relative to the column's own
    scale (so badly scaled but well-conditioned systems still solve,
    and scaled-down singular systems no longer slip through) with an
    absolute floor for exactly-zero columns.  Shared by the dense and
    sparse factorisations. *)

val pivot_rel_tol : float
val pivot_abs_floor : float
(** The two constants of {!pivot_threshold}, which is
    [Float.max pivot_abs_floor (pivot_rel_tol *. col_max)] — exposed so
    the sparse refactorisation can evaluate that expression inline per
    column instead of calling across modules on boxed floats. *)

val factorise : Matrix.t -> factorisation
(** In-place-style Doolittle factorisation of a square matrix (the input is
    copied first). @raise Singular when no pivot exceeds the tolerance. *)

val solve_factorised : factorisation -> Vec.t -> Vec.t
(** Forward/back substitution against an existing factorisation. *)

val solve : Matrix.t -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b]. @raise Singular on singular systems. *)

val det : Matrix.t -> float
(** Determinant via the factorisation; 0.0 for singular matrices. *)

val inverse : Matrix.t -> Matrix.t
(** Explicit inverse (tests and small analyses only). *)

val condition_estimate : Matrix.t -> float
(** Cheap condition estimate: ||A||_inf * ||A^-1||_inf. Returns [infinity]
    for singular matrices. *)
