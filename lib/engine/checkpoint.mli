(** Run-lifecycle checkpointing: a {!Snapshot} bound to an on-disk path
    plus a flush cadence and a process-wide interrupt flag.

    The long loops (GA generations, Monte-Carlo sample prefixes, flow
    phases) mutate the in-memory snapshot as they complete units of work
    and call {!flush} every [every] units; {!guard} is called at loop
    boundaries so a requested interrupt (SIGINT or
    {!request_interrupt}) flushes a final snapshot and raises
    {!Interrupted} at a clean, resumable boundary.  Because every
    stochastic loop in the code base draws from pre-split, index-stable
    PRNG streams, resuming from any such boundary reproduces the
    uninterrupted run bit-for-bit. *)

exception Interrupted
(** Raised by {!guard} at a loop boundary after the final snapshot has
    been flushed. *)

type t

val create : ?every:int -> fingerprint:string -> string -> t
(** [create ~fingerprint path] starts a fresh (cold) checkpoint writing
    to [path].  [every] (default 1) is the flush cadence in work units
    (GA generations, MC samples).  @raise Invalid_argument when
    [every < 1]. *)

val resume : ?every:int -> fingerprint:string -> string -> (t, string) result
(** Load the snapshot at [path] and validate its version and
    fingerprint.  [Error reason] covers every failure (missing, corrupt,
    version or fingerprint mismatch) — callers warn and fall back to
    {!create}. *)

val path : t -> string
val every : t -> int
val snapshot : t -> Snapshot.t

val flush : t -> unit
(** Atomically persist the current snapshot state to disk. *)

(* ---- interruption ---- *)

val request_interrupt : unit -> unit
(** Set the process-wide interrupt flag (signal-safe); the next {!guard}
    will flush and raise.  Also the deterministic test/CI hook. *)

val interrupted : unit -> bool
val clear_interrupt : unit -> unit

val install_signal_handler : unit -> unit
(** Route SIGINT to {!request_interrupt}.  A second SIGINT restores the
    default behaviour, so a stuck run can still be killed. *)

val guard : t option -> unit
(** [guard (Some t)] flushes [t] and raises {!Interrupted} when an
    interrupt was requested; [guard None] is a no-op (un-checkpointed
    runs keep the default SIGINT behaviour). *)

(* ---- resumable bulk evaluation ---- *)

val resumable_map :
  ?pool:Pool.t ->
  ?chunk:int ->
  t ->
  key:string ->
  encode:('b -> float array) ->
  decode:(float array -> 'b) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [resumable_map t ~key ~encode ~decode f items] behaves like
    {!Parmap.map f items} but persists the completed-result prefix under
    [key] in the snapshot, flushing every {!every} items, and restores
    that prefix (skipping the corresponding calls to [f]) on resume.
    [decode] may raise on a malformed row, in which case the whole
    stored prefix is discarded and the map restarts cold.  Calls
    {!guard} between chunks, so it raises {!Interrupted} at an
    item-prefix boundary.  Results are identical to the plain map
    because item order and any per-item PRNG streams are index-stable.

    [chunk] forwards to {!Parmap.map} (dispatch granularity only). *)
