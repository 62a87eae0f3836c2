(** Span-based tracing with Chrome [trace_event] export.

    Spans nest by call structure per domain: every [span] emits a
    begin/end pair tagged with the domain id, so a viewer
    ([chrome://tracing], Perfetto) reconstructs the nesting from the
    per-thread event stacks.  Events buffer in per-domain sinks — the
    hot emit path touches only domain-local state plus one atomic
    fetch-add for the global ordering sequence.

    Tracing is off by default and every instrumentation point is a
    cheap no-op then (one atomic load), so instrumented code paths are
    safe to leave enabled everywhere.  Instrumentation must never
    change results: nothing here touches PRNG state or evaluation
    outputs (the zero-perturbation contract, enforced by test). *)

type event = {
  name : string;
  ph : char;  (** 'B' begin | 'E' end | 'i' instant | 'C' counter *)
  ts : float;  (** microseconds since the trace epoch *)
  tid : int;
  seq : int;
  args : (string * string) list;
}

val start : ?gc:bool -> unit -> unit
(** Drop any buffered events, restart the clock/sequence, mint a fresh
    trace id, and enable collection.  [~gc:true] additionally captures
    [Gc.quick_stat] deltas (minor/major/promoted words, collection
    counts) at every span boundary and attaches them as args on the
    span's end event. *)

val stop : unit -> unit
(** Disable collection; buffered events stay available for [export]. *)

val enabled : unit -> bool

val gc_capture : unit -> bool
val set_gc_capture : bool -> unit

val id : unit -> string
(** The current trace id (minted by {!start}; [""] before the first
    start).  Carried across processes by the model-server client's HTTP
    headers so a merge step can stitch per-process traces together. *)

val set_process_label : string -> unit
(** Human-readable name for this process ("coordinator", "serve", …),
    written into the export metadata and as a Chrome [process_name]
    metadata event. *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], bracketing it with begin/end events when
    tracing is enabled (the end event is emitted even when [f] raises).
    When disabled this is just [f ()]. *)

val current_span : unit -> int option
(** Id (the begin event's [seq]) of the innermost open span on this
    domain, if any.  This is what gets propagated as the remote parent
    span id. *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration marker event (cache-hit ratios, one-off facts). *)

val counter : string -> int -> unit
(** [counter name v] records a Chrome counter sample ('C' event): the
    viewer renders these as a stacked value track over time (e.g. busy
    domains). *)

val events : unit -> event list
(** All buffered events in sequence order (analysis, tests). *)

val event_count : unit -> int
(** Number of buffered events (tests, report sizing). *)

val event_json : pid:int -> event -> Repro_util.Json.t
(** One event as a Chrome trace_event object: [name], [cat], [ph], [ts],
    [pid], [tid], [seq] (span identity for merged traces), ["s":"t"] on
    instants, and an [args] object when there are args — numbers on
    counter events, strings otherwise. *)

val process_name_json : pid:int -> string -> Repro_util.Json.t
(** The Chrome [process_name] metadata event naming [pid]. *)

val write_chrome :
  string -> ?meta:Repro_util.Json.t -> Repro_util.Json.t Seq.t -> unit
(** [write_chrome path ?meta events] writes a trace_event JSON document,
    one event per line, with [meta] as a top-level ["meta"] object. *)

val export : string -> int
(** Write all buffered events (sequence order) to [path] as a Chrome
    [trace_event] JSON document; returns the event count.  Timestamps
    are microseconds since {!start}.  A top-level ["meta"] object
    records this process's pid, wall-clock epoch, trace id and label so
    that [trace merge] can place several processes on one timeline. *)

val record :
  ?label:string ->
  string ->
  on_export:((int, string) result -> unit) ->
  (unit -> 'a) ->
  'a
(** [record path ~on_export f] is how a traced command runs ([hieropt
    --trace]): collection starts with GC capture, [label] names the
    process, and [f] runs under a root ["run"] span, so a profile's
    self-times telescope to exactly the traced wall time.  The trace is
    exported to [path] even when [f] raises; [on_export] gets the event
    count, or the I/O error. *)
