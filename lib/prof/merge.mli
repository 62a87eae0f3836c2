(** Multi-process trace assembly.

    Each traced process exports its own Chrome trace with a wall-clock
    epoch in the metadata — for example a [system --remote] run (the
    base, labelled ["coordinator"]) and the [serve] process it queried,
    whose HTTP spans carry the caller's trace id and parent span id.
    [merge] places every other process's events on the base timeline
    (shifted by the epoch difference), gives them fresh deterministic
    pids, and [validate] checks the result is one coherent trace. *)

type process = {
  label : string option;
  pid : int;
  epoch : float;  (** wall-clock seconds at this process's ts = 0 *)
  trace : string;  (** trace id (the coordinator's id propagates) *)
  events : Event.t list;
}

val parse : path:string -> string -> (process, string) result
(** Decode the text of a [--trace] export (the ["meta"] header plus
    ["traceEvents"]).  Events without a one-character [ph] or a [name]
    are skipped and missing numeric fields default, so a trace cut short
    by a crash still decodes; text that is not JSON, or has no
    [traceEvents] array, is an [Error] naming [path]. *)

val load : string -> (process, string) result
(** {!parse} of a file; an unreadable file is an [Error]. *)

val check_trace_id :
  base:process -> path:string -> process -> (unit, string) result
(** [Error] with a warning when the process read from [path] tags
    spans with trace ids but none of them is the base's — the file is
    probably from another run. *)

val merge :
  base:process -> workers:process list -> Event.t list * (int * string) list
(** Merged events on the base timeline plus the pid → label table.
    [workers] are the processes the base called; process [i] gets pid
    [base.pid + 1 + i] and its timestamps move by
    [(epoch - base.epoch)] seconds.  Every process's metadata events,
    the base's included, are dropped (labels carry the information). *)

val validate :
  ?slack_us:float -> coordinator_pid:int -> Event.t list -> string list
(** Errors found in a merged trace: unbalanced begin/ends, remote spans
    whose propagated parent id the coordinator never emitted, remote
    spans escaping their parent's interval by more than [slack_us]
    (default 50 ms), or remote spans none of which carries a parent id
    (propagation broke).  Empty for a coherent trace. *)

val export : path:string -> ?labels:(int * string) list -> Event.t list -> int
(** Write events (timestamp order) as a Chrome trace-event JSON file
    with process_name metadata from [labels], each event encoded by
    {!Repro_obs.Trace.event_json}; returns the event count. *)
