(** Process-wide counters and wall-clock timers for the evaluation
    engine (evaluations run, cache hits, failures, per-phase time).

    The registry is global and mutex-protected so pool workers can
    report from any domain.  Names are free-form dotted strings, e.g.
    ["eval.runs"], ["mc.failures"], ["phase.circuit"]. *)

val incr : ?by:int -> string -> unit
val set : string -> int -> unit
val counter : string -> int
(** Unknown counters read as 0. *)

val add_time : string -> float -> unit
(** Accumulate wall-clock seconds onto a named timer. *)

val timer : string -> float
(** Total accumulated seconds (0 when never touched). *)

val time : string -> (unit -> 'a) -> 'a
(** Run a thunk, accumulating its wall-clock duration (also on
    exceptions). *)

val warn : key:string -> ('a, unit, string, unit) format4 -> 'a
(** Loud failure-channel warning: increments counter [key], prints
    ["WARNING [key]: ..."] to stderr as one atomic line (warnings from
    concurrent domains never tear), and mirrors the warning into the
    current {!Repro_obs.Journal} as a structured event when a run is
    active. *)

val reset : unit -> unit
(** Clear every counter and timer (bench sections, tests). *)

val snapshot : unit -> (string * [ `Counter of int | `Timer of float ]) list
(** A consistent point-in-time copy of the whole registry, keys sorted
    (counters and timers interleaved by name).  This is the structured
    export surface — [line] and [report] are renderings of it, as is
    the model server's [GET /v1/metrics]; consumers should branch on
    the tags rather than scrape the formatted strings. *)

val line : unit -> string
(** One-line ["telemetry: k=v ..."] summary, keys sorted. *)

val report : unit -> string
(** Multi-line aligned report. *)
