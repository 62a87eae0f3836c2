(** Profile analyses over reconstructed span trees: self-time and GC
    attribution per span name, per-domain utilization within a time
    window, and flamegraph-compatible folded stacks. *)

type row = {
  name : string;
  count : int;
  total_us : float;  (** inclusive duration, summed over instances *)
  self_us : float;  (** total minus direct children (clamped ≥ 0) *)
  gc_minor_total : float;  (** minor words allocated, incl. children *)
  gc_minor_self : float;
  gc_major_total : float;
  gc_minor_cols : int;
  gc_major_cols : int;
}

val self_time : Event.span list -> row list
(** Per-name aggregation over a span forest, sorted by self-time
    descending.  Because self = total − children telescopes, the
    self-times of all rows sum to the total duration of the roots —
    the property behind "report attributes ≥95% of wall time". *)

val total_self : row list -> float

val slowest : Event.span list -> Event.span list
(** Every span of the forest, longest first (ties in preorder). *)

val find_span : (string -> bool) -> Event.span list -> Event.span option
(** First span (preorder) whose name satisfies the predicate. *)

val utilization :
  ?busy:(string -> bool) ->
  Event.span list ->
  t0:float ->
  t1:float ->
  ((int * int) * float) list
(** [((pid, tid), busy_fraction)] per domain within the window, sorted.
    A domain is busy while inside a span accepted by [busy] (default:
    pool.chunk / pool.serial); nested busy spans count once.  Keyed by
    process too: in a merged trace every process has a tid 0, and
    pooling them would fabricate utilization. *)

val folded : ?labels:(int * string) list -> Event.span list -> string
(** Folded-stack lines ["proc/tN;span;span self_us"] suitable for
    flamegraph.pl; [labels] maps pids to process names. *)
