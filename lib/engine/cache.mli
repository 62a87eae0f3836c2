(** Content-addressed memoisation of expensive evaluations.

    Keys canonically hash a (decision vector, optional process-sample
    id, measurement kind) triple: float bits are canonicalised (-0.0 =
    +0.0, all NaNs equal) and full key equality backs the hash, so
    collisions cannot alias distinct designs.  Values are flat float
    arrays (callers pack/unpack their own records).

    The table is mutex-protected, counts hits/misses/evictions, evicts
    FIFO past [capacity], and can be saved to / loaded from a text
    [.cache] file kept next to the [hieropt_model/*.tbl] artefacts. *)

type key

val key : ?sample:int -> kind:string -> float array -> key
(** [key ~kind x] addresses the evaluation of decision vector [x] under
    measurement [kind]; [sample] distinguishes per-process-sample
    results (e.g. Monte-Carlo trial ids). *)

val key_kind : key -> string
val key_sample : key -> int option

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 200_000 entries.
    @raise Invalid_argument when [capacity <= 0]. *)

val find : t -> key -> float array option
(** Counted lookup (a copy of the stored value is returned). *)

val store : t -> key -> float array -> unit
(** Insert, or replace the value of an existing key.  A replaced key
    keeps its FIFO position and is not queued twice, so a caller that
    found a stored value unusable (say, of the wrong length) and
    recomputed it repairs the entry in place. *)

val find_or_compute : t -> key -> (unit -> float array) -> float array

val length : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val reset_counters : t -> unit

val stats_line : t -> string
(** e.g. ["cache: 132 entries, 480 hits / 132 misses"]. *)

val save : t -> string -> unit
(** Write the table to [path] (text, lossless [%h] floats) through a
    [path ^ ".tmp"] file renamed into place, so a crash mid-save leaves
    the previous file intact. *)

val load : ?capacity:int -> string -> t
(** @raise Failure when [path] is not a cache file.  Malformed entry
    lines are skipped, and so is a last line without its newline (a
    file cut mid-line), so every entry loaded is one that was saved,
    bit for bit; counters start at zero. *)

val load_if_exists : ?capacity:int -> string -> t option
(** [None] when the file is missing or unreadable; never raises. *)
