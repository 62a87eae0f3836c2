(** Dense float vectors (thin wrappers over [float array] with the
    operations the simulator needs). *)

type t = float array

val create : int -> t
(** Zero vector of the given length. *)

val copy : t -> t
val fill : t -> float -> unit

val dot : t -> t -> float
val norm2 : t -> float
val norm_inf : t -> float

val max_abs_diff : t -> t -> float
(** Infinity norm of the difference; used for Newton convergence checks. *)

val scale : float -> t -> unit
val add : t -> t -> t
val sub : t -> t -> t

val pp : Format.formatter -> t -> unit
