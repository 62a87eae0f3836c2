(** A distributed eval-worker: the request-handling half of the farm.

    A worker owns a full local evaluation stack — the same
    {!Hieropt.Vco_problem} / {!Hieropt.Pll_problem} construction, the
    same {!Repro_moo.Problem.parallel_evaluator} over the shared domain
    pool, its own content-addressed eval cache — and exposes it over
    the {!Repro_serve} HTTP transport (routes documented in
    {!Protocol}).  Because the evaluation code path is identical to a
    local run's and floats cross the wire losslessly, a shard computed
    here is bit-identical to the same shard computed in-process.

    System-level (PLL) evaluations are servable only when the worker
    was created with a table [model]; its {!Protocol.model_fingerprint}
    is advertised on [/healthz] and checked against the coordinator's
    on every request. *)

type t

val create :
  ?version:string ->
  ?model:Hieropt.Perf_table.t ->
  config:Hieropt.Hierarchy.config ->
  unit ->
  t
(** Build the worker state for [config].  The config must match the
    coordinator's run configuration — {!Hieropt.Hierarchy.config_salt}
    is how both ends verify that. *)

val salt : t -> string
val cache : t -> Repro_engine.Cache.t
val problems : t -> string list
(** Problem names this worker can evaluate. *)

val handler :
  t -> Repro_serve.Http.request -> int * (string * string) list * string
(** The request handler, for {!Repro_serve.Server.start_with}.  Routes
    live under [/v1/*]; unversioned paths answer 404.  Safe to call
    from several reactor domains at once.  Per-endpoint request
    latencies are recorded under [dist.latency.*] histograms. *)

val serve :
  ?addr:string ->
  ?port:int ->
  ?reactors:int ->
  ?request_timeout:float ->
  t ->
  Repro_serve.Server.t
(** Start serving {!handler} (defaults: 127.0.0.1:8190, 2 reactor
    domains).  The returned server follows the usual
    {!Repro_serve.Server} lifecycle (stop/wait/signal handlers).
    @raise Unix.Unix_error if the address cannot be bound. *)
