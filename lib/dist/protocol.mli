(** Wire format of the distributed evaluation farm.

    All payloads are {!Repro_util.Json} documents; floats travel in
    the encoder's lossless decimal rendering, so an evaluation computed
    remotely is {e bit-identical} to the same evaluation computed
    locally — the property the whole determinism contract rests on.

    Routes served by an eval-worker:

    - [GET /healthz] — role, version, config salt, job count, servable
      problems and cache statistics;
    - [POST /eval] — a batched evaluation request (GA population shard
      or Monte-Carlo sample shard, discriminated by the [problem]
      field) answered with one flat result row per input, in order;
    - [GET /cache/:id] / [PUT /cache/:id] — single-entry exchange in
      the eval-cache's persistence line format;
    - [PUT /cache] — bulk warming: newline-separated entry lines.

    A request whose [salt] does not match the worker's configuration is
    rejected with 409 — mismatched set-ups must fail loudly instead of
    silently poisoning caches. *)

val stream_to_hex : Repro_util.Prng.t -> string
(** Complete generator state as colon-separated [%016Lx] words. *)

val stream_of_hex : string -> (Repro_util.Prng.t, string) result
(** Inverse of {!stream_to_hex}; the restored stream's future output is
    identical to the original's. *)

val model_fingerprint : Hieropt.Perf_table.t -> string
(** Content hash of a table model.  A worker advertises it on
    [/healthz] and the coordinator sends its own on system-level eval
    requests: PLL evaluations are only distributed when both ends hold
    the same model. *)

val floats_to_json : float array -> Repro_util.Json.t
(** Finite floats as lossless JSON numbers; non-finite values (e.g. the
    [infinity] objectives of an infeasible evaluation) as the strings
    ["inf"] / ["-inf"] / ["nan"]. *)

val floats_of_json :
  what:string -> Repro_util.Json.t -> (float array, string) result

type eval_request = {
  problem : string;  (** {!Repro_moo.Problem.t} name, or ["mc"] *)
  salt : string;     (** {!Hieropt.Hierarchy.config_salt} of the run *)
  model_hash : string option;
      (** expected {!model_fingerprint}, for system-level problems *)
  points : float array array;  (** decision vectors *)
}

val eval_request_to_json : eval_request -> Repro_util.Json.t
val eval_request_of_json : Repro_util.Json.t -> (eval_request, string) result

type mc_request = {
  mc_salt : string;
  params : float array;
      (** the 7-float {!Repro_circuit.Topologies.vco_params} vector *)
  streams : Repro_util.Prng.t array;  (** pre-split per-trial streams *)
}

val mc_request_to_json : mc_request -> Repro_util.Json.t
val mc_request_of_json : Repro_util.Json.t -> (mc_request, string) result

(** {2 Trace propagation envelope}

    Optional profiling side-channel on eval/MC exchanges: the
    coordinator stamps requests with its trace id, owning span id and
    wall-clock send time; the worker echoes its own span id plus
    wall-clock receive/reply times.  The four stamps yield an NTP-style
    clock-offset estimate per round trip and the ids let [trace merge]
    nest worker spans under their coordinator parents.  Untraced peers
    ignore the envelope; it never influences evaluation. *)

type trace_ctx = { trace : string; parent : int; t_sent : float }
type trace_echo = { span : int; t_recv : float; t_replied : float }

val with_trace_ctx : trace_ctx option -> Repro_util.Json.t -> Repro_util.Json.t
(** Attach a ["trace"] object to a request document ([None] = identity). *)

val trace_ctx_of_json : Repro_util.Json.t -> trace_ctx option
val with_trace_echo : trace_echo option -> Repro_util.Json.t -> Repro_util.Json.t
val trace_echo_of_json : Repro_util.Json.t -> trace_echo option

val results_to_json : float array array -> Repro_util.Json.t
(** [{"results": [[...], ...]}] — {!Repro_moo.Problem.pack} rows for GA
    shards, {!perf_row_of_outcome} rows for Monte-Carlo shards. *)

val results_of_json :
  Repro_util.Json.t -> (float array array, string) result

val perf_row_of_outcome :
  (Repro_spice.Vco_measure.performance, string) result -> float array
(** [[|1.0; kvco; ivco; jvco; fmin; fmax|]] for a successful trial,
    [[|0.0|]] for a failed one (messages never cross the wire — only
    the failure count feeds the statistics, so the placeholder keeps
    remote runs bit-identical). *)

val outcome_of_perf_row :
  float array -> (Repro_spice.Vco_measure.performance, string) result
(** Inverse of {!perf_row_of_outcome}.
    @raise Failure on a malformed row. *)
