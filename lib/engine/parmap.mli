(** Order-preserving parallel map with a bit-reproducibility guarantee.

    Results are assembled by index, work is dispatched in chunks over a
    {!Pool}, and all randomness is pre-split per element on the calling
    domain ({!map_seeded}), so for a {e pure} per-element function the
    output is byte-identical whether the pool has 1 worker or 64.

    When [?pool] is omitted the shared {!Pool.get_default} pool is used,
    i.e. parallelism follows [-j] / [HIEROPT_JOBS].  [?chunk] forwards
    to {!Pool.run_items} and only tunes dispatch granularity — it never
    changes results. *)

val map : ?pool:Pool.t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map].  The first exception raised by [f] is
    re-raised on the calling domain (remaining items may or may not have
    been evaluated). *)

val mapi : ?pool:Pool.t -> ?chunk:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val init : ?pool:Pool.t -> ?chunk:int -> int -> (int -> 'b) -> 'b array
(** Parallel [Array.init].  @raise Invalid_argument on negative size. *)

val map_seeded :
  ?pool:Pool.t ->
  ?chunk:int ->
  prng:Repro_util.Prng.t ->
  (Repro_util.Prng.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_seeded ~prng f arr] splits one independent child stream per
    element from [prng] (advancing it exactly [Array.length arr] times,
    same as the serial split-per-iteration idiom) and maps [f] in
    parallel.  Stream assignment depends only on the element index. *)

val map_chunks :
  ?pool:Pool.t ->
  ?busy:Repro_obs.Histogram.t ->
  ('a array -> 'b array) ->
  'a array ->
  'b array
(** [map_chunks f arr] splits [arr] into one contiguous chunk per pool
    worker (fewer when [arr] is shorter; sizes differ by at most one),
    applies [f] to each chunk across the pool and concatenates the
    results in order.  It is for work that runs faster in one call over
    many elements than element by element, such as lockstep
    simulations; [f] must return one result per element of its chunk,
    and for an [f] that computes each element's result independently of
    the chunk the output is the same for any worker count.  With
    [busy], each chunk's duration is observed into it.  Fewer than two
    elements, or a call from inside a pool task, run [f] once on the
    calling domain, without resolving a pool.  The first exception is
    re-raised as by {!map}.
    @raise Invalid_argument when [f] returns a wrong-sized array. *)
