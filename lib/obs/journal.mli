(** Append-only JSONL run journal.

    One line per event, each a flat JSON object with at least
    [{"ts": unix-seconds, "run": id, "event": name}].  Lines are
    written with a single [output_string] under a mutex and flushed
    immediately, so concurrent writers never tear a line and a killed
    run keeps everything it logged.  The journal lives at
    [dir/run.journal] and is append-only across runs — [hieropt
    report] groups lines by run id.

    A process-global "current" journal lets low-level libraries
    (Telemetry warnings, checkpoint flushes) record structured events
    without threading a handle through every call: the [record_*]
    helpers are no-ops when no journal is current. *)

type t

val default_file : string
(** ["run.journal"]. *)

val create : ?run_id:string -> dir:string -> unit -> t
(** Open (append) [dir/run.journal], creating [dir] when missing.  The
    default run id is timestamp+pid based — the journal is diagnostic
    output, deliberately outside the byte-identical artefact set. *)

val close : t -> unit
val path : t -> string
val run_id : t -> string

val event : t -> string -> (string * Repro_util.Json.t) list -> unit
(** Append one event line with extra fields. *)

val line :
  ts:float -> run:string -> string -> (string * Repro_util.Json.t) list ->
  string
(** [line ~ts ~run name fields] is the event line [event] writes
    (without its newline): [{"ts":..,"run":..,"event":name, fields...}]. *)

val read : string -> (Repro_util.Json.t list, string) result
(** Every parseable line of a journal file, in order.  Lines that do not
    parse (a line torn by a killed run) are skipped; an unreadable file
    is an [Error]. *)

(** {2 Process-current journal} *)

val set_current : t -> unit
val clear_current : unit -> unit
val active : unit -> bool

(** {2 Typed events} *)

val run_start :
  t -> fingerprint:string -> (string * Repro_util.Json.t) list -> unit

val run_finish :
  t -> seconds:float -> (string * Repro_util.Json.t) list -> unit
(** The extra fields carry run-level summary numbers (e.g. the
    avoided/paid/cached evaluation split) into the finish event, where
    [hieropt report] renders them. *)

(* the [record_*] family writes to the current journal, or nowhere *)

val record_phase_start : string -> unit
val record_phase_finish : string -> seconds:float -> unit

val record_ga_generation :
  label:string ->
  generation:int ->
  front_size:int ->
  spread:float ->
  hypervolume:float ->
  unit

val record_evals : label:string -> avoided:int -> paid:int -> unit
(** Surrogate pre-screen outcome of one GA run: how many exact
    evaluations were avoided vs paid under [label]. *)

val record_checkpoint : action:string -> path:string -> unit
val record_warning : key:string -> string -> unit
