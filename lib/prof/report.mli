(** The text of [hieropt report]: a run journal's summary, the slowest
    spans of a trace, and a trace's full profile, each printed to a
    formatter. *)

val journal :
  Format.formatter -> Repro_util.Json.t list -> (unit, string) result
(** Summarise the newest run of a journal's events (as read by
    {!Repro_obs.Journal.read}): per-phase time breakdown, per-generation
    front size, spread and hypervolume for each GA level, checkpoint
    activity, warnings, surrogate pre-screen outcomes and the
    requested/avoided/cached/simulated evaluation split.  [Error] when
    there are no events. *)

val trace : Format.formatter -> top:int -> Merge.process -> unit
(** The [top] longest spans of a trace, paired per (pid, tid). *)

val profile :
  Format.formatter ->
  path:string ->
  top:int ->
  ?folded:string ->
  Merge.process ->
  (unit, string) result
(** Self-time and allocation tables ([top] rows each) and per-domain
    utilization over the whole run and each [phase.*] span of the trace
    read from [path]; [folded] also writes flamegraph folded stacks to
    that file.  [Error] when the trace has no spans or [folded] cannot
    be written. *)
