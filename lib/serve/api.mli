(** Endpoint routing and JSON (de)serialisation for the model server.

    A server serves the one table model it was created with, under the
    id ["default"]; to serve another model, start another server.

    Routes (all responses [application/json] unless noted; every route
    lives under [/v1], and unversioned paths answer 404):

    - [GET /v1/healthz] — liveness + build/uptime info (version string,
      start time, uptime);
    - [GET /v1/metrics] — combined observability snapshot: Telemetry
      counters and timers plus every registered
      {!Repro_obs.Histogram} as count/sum/min/max/p50/p90/p99 (notably
      the per-endpoint [serve.latency.*] request-latency histograms
      recorded by [handle]).  Any query string is ignored;
    - [POST /v1/models/default/query] — batched
      {!Hieropt.Perf_table.eval_points} over
      [{"points": [{"kvco": .., "ivco": ..}, ...]}] (or one bare point
      object); the response is rendered by {!Repro_util.Json.to_string}
      like every other route, and its lossless floats make served
      results bit-identical to in-process evaluation;
    - [GET /v1/models/default/export?format=va|spice] — the table
      rendered by {!Repro_netlist.Export} as a Verilog-A
      [$table_model] module ([va], the default; [verilog-a] is
      accepted) or a SPICE subcircuit ([spice]), served as
      [text/plain].  The renderers are pure functions of the table, so
      the body is byte-identical to [hieropt export] over the same
      model directory.

    A model id other than ["default"] answers 404 without touching the
    filesystem.  Unknown paths map to 404, wrong verbs on known paths
    to 405, malformed bodies to 400, handler exceptions to 500.
    [handle] never raises; the server calls it on its event-loop
    domain, and it only reads the (immutable) table. *)

type t

val model_id : string
(** ["default"], the only id in [/v1/models/:id/...] a server answers
    to. *)

val create : ?version:string -> model:Hieropt.Perf_table.t -> unit -> t
(** [version] is reported by [/v1/healthz] (default ["dev"]); the start
    time is captured here. *)

val metrics_json : unit -> Repro_util.Json.t
(** The [GET /v1/metrics] document (also printed by the CLI's local
    [query --metrics]). *)

val handle : t -> Http.request -> int * (string * string) list * string
(** [status, extra headers, body] for one parsed request. *)

(* wire shape of a model query result — shared by the server, the
   client and the CLI so all three print/parse identically *)

val point_eval_to_json : Hieropt.Perf_table.point_eval -> Repro_util.Json.t
val point_eval_of_json : Repro_util.Json.t -> (Hieropt.Perf_table.point_eval, string) result

val max_batch : int
(** Upper bound on points per [/query] request (larger batches 400). *)
