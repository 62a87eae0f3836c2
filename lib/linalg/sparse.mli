(** Square sparse matrices in compressed sparse row (CSR) form, built
    for the MNA systems of the circuit simulator.

    The structure (row pointers + column indices) is immutable after
    {!Builder.build}; the value array is mutable so a fixed sparsity
    pattern can be restamped cheaply across Newton iterations,
    timesteps and Monte-Carlo samples.  Two matrices made with
    {!like} share their pattern arrays physically, which makes pattern
    reuse free and fingerprint comparison cheap. *)

type t

module Builder : sig
  type b

  val create : n:int -> b
  (** Builder for an [n] x [n] matrix. *)

  val add : b -> int -> int -> float -> unit
  (** [add b i j v] accumulates [v] onto entry [(i, j)].  Duplicate
      stamps at the same position sum, matching MNA stamping.
      @raise Invalid_argument on out-of-range indices. *)

  val build : b -> t
  (** Freeze into CSR form.  Columns within each row are sorted
      ascending; duplicates are summed.  The builder stays usable. *)
end

val n : t -> int
val nnz : t -> int

val get : t -> int -> int -> float
(** [get a i j] is the entry at [(i, j)] (0.0 outside the pattern). *)

val index : t -> int -> int -> int
(** Position of [(i, j)] inside the value array, or [-1] when the
    pattern has no such entry.  Binary search within the row. *)

val values : t -> float array
(** The mutable value store, aligned with the CSR pattern.  Writing
    through it is the supported fast restamping path. *)

val row_ptr : t -> int array
val col_idx : t -> int array
(** Raw CSR pattern arrays (treat as read-only; shared across {!like}
    copies). *)

val like : t -> t
(** A matrix sharing [t]'s pattern with a fresh zero value array —
    the per-worker restamping target. *)

val same_pattern : t -> t -> bool
(** Structural equality of the patterns (physical-equality fast
    path). *)

val fingerprint : t -> int
(** A 62-bit FNV-1a hash of [(n, row_ptr, col_idx)] — the structural
    key under which symbolic factorisations are shared. *)

val mul_vec : t -> float array -> float array
(** Sparse matrix-vector product (residual checks, tests). *)

val of_matrix : ?keep_zeros:bool -> Matrix.t -> t
(** Dense to CSR; entries equal to [0.0] are dropped unless
    [keep_zeros]. @raise Invalid_argument on non-square input. *)

val to_matrix : t -> Matrix.t
(** CSR to dense (tests, small analyses). *)
