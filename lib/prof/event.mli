(** Typed Chrome-trace events and span reconstruction.

    This is the analysis-side twin of {!Repro_obs.Trace}: the tracer
    emits flat begin/end/instant/counter events; this module pairs the
    begin/end events back into per-(pid, tid) span trees so self-time,
    GC attribution and utilization can be computed.  {!Merge.load}
    decodes a trace file into these values. *)

type t = {
  name : string;
  ph : char;  (** 'B' | 'E' | 'i' | 'C' | 'M' *)
  ts : float;  (** microseconds on the owning process's timeline *)
  pid : int;
  tid : int;
  seq : int;
  args : (string * string) list;
}

type span = {
  name : string;
  pid : int;
  tid : int;
  id : int;  (** seq of the begin event — what remote children reference *)
  t0 : float;
  mutable t1 : float;
  args : (string * string) list;  (** begin-event args *)
  mutable gc : (string * string) list;  (** end-event args (gc.* deltas) *)
  depth : int;
  mutable children : span list;  (** chronological *)
}

val dur : span -> float
(** Duration in microseconds. *)

val arg : string -> (string * string) list -> string option

val gc_field : span -> string -> float
(** Numeric gc.* delta from the span's end-event args (0 when absent). *)

val spans : t list -> span list
(** Root spans (children linked, chronological), reconstructed with a
    per-(pid, tid) stack over events ordered by (ts, seq).  Stray end
    events and spans left open (no matching end) are dropped. *)

val flatten : span list -> span list
(** Preorder walk of a span forest. *)

val unbalanced : t list -> int
(** Number of begin/end events with no partner (0 for a well-formed
    trace). *)
