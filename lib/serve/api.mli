(** Endpoint routing and JSON (de)serialisation for the model server.

    Routes (all responses [application/json]; every route lives under
    [/v1], and unversioned paths answer 404):

    - [GET /v1/healthz] — liveness + build/uptime info (version string,
      start time, uptime, servable and loaded model counts);
    - [GET /v1/metrics] — combined observability snapshot: Telemetry
      counters and timers plus every registered
      {!Repro_obs.Histogram} as count/sum/min/max/p50/p90/p99 (notably
      the per-endpoint [serve.latency.*] request-latency histograms
      recorded by [handle]).  [?format=prom] renders the same snapshot
      as Prometheus text exposition ({!Repro_prof.Prom}); JSON stays
      the default;
    - [GET /v1/models] — servable ids with load state;
    - [POST /v1/models/:id/query] — batched
      {!Hieropt.Perf_table.eval_points} over
      [{"points": [{"kvco": .., "ivco": ..}, ...]}] (or one bare point
      object); floats travel in lossless decimal, so served results are
      bit-identical to in-process evaluation.  This is the hot path: it
      runs on per-reactor model handles (one lock-free stat revalidates
      the handle; the LRU registry mutex is only taken on miss/reload)
      and serialises into a reused per-reactor scratch buffer;
    - [POST /v1/models/:id/verify] — parameter recovery: a
      5-performance point back to the 7 transistor dimensions
      ({!Hieropt.Perf_table.params_of_perf});
    - [GET /v1/models/:id/export?format=va|spice] — the fitted table
      rendered by {!Repro_netlist.Export} as a Verilog-A [$table_model]
      module ([va], the default; [verilog-a] is accepted) or a SPICE
      subcircuit ([spice]), served as [text/plain].  The renderers are
      pure functions of the table, so the body is byte-identical to
      [hieropt export] over the same model directory.

    Unknown paths map to 404, wrong verbs on known paths to 405,
    malformed bodies to 400, load failures and handler exceptions to
    500.  [handle] never raises; it is called concurrently from every
    reactor domain. *)

type t

val create : ?version:string -> registry:Registry.t -> unit -> t
(** [version] is reported by [/v1/healthz] (default ["dev"]); the start
    time is captured here. *)

val registry : t -> Registry.t

val metrics_json : unit -> Repro_util.Json.t
(** The [GET /v1/metrics] document (also printed by the CLI's local
    [query --metrics]). *)

val query_param : Http.request -> string -> string option
(** Value of a query-string parameter in the raw target (no percent
    decoding — parameters are plain tokens).  Shared with the
    eval-worker's routing. *)

val handle : t -> Http.request -> int * (string * string) list * string
(** [status, extra headers, body] for one parsed request. *)

(* wire shape of a model query result — shared by the server, the
   client and the CLI so all three print/parse identically *)

val point_eval_to_json : Hieropt.Perf_table.point_eval -> Repro_util.Json.t
val point_eval_of_json : Repro_util.Json.t -> (Hieropt.Perf_table.point_eval, string) result
val params_to_json : Repro_circuit.Topologies.vco_params -> Repro_util.Json.t

val max_batch : int
(** Upper bound on points per [/query] request (larger batches 400). *)
