(** Adapter from the HTTP client to {!Hieropt.Pll_problem.model_query},
    so the system-level optimiser can evaluate candidates against a
    model server instead of an in-process table.

    Because the server evaluates the very same {!Hieropt.Perf_table}
    code and floats cross the wire losslessly, a remote run is
    bit-identical to a local one — the server is a faithful oracle, and
    an eval cache written under either path serves the other.

    [fallback] (a locally-loaded table) makes the adapter degrade
    gracefully: if the server stays unreachable after the client's
    retries, the batch is evaluated locally and a telemetry counter
    ([serve.remote_fallbacks]) records the downgrade.  Until a query
    is answered again, each later query tries the server once, with no
    retry or backoff, and the outage is warned about once.  Without a
    fallback, server failure raises {!Remote_unavailable}. *)

exception Remote_unavailable of string

val model_query :
  ?fallback:Hieropt.Perf_table.t ->
  client:Client.t ->
  model:string ->
  unit ->
  Hieropt.Pll_problem.model_query
(** [model] is the id in the query URL; a server answers only
    {!Api.model_id}. *)

val parse_endpoint : string -> (string * int, string) result
(** Parse a [HOST:PORT] spec, as taken by the CLI's [--remote] flags,
    into host and port.  A server serves one model, so there is no
    model part. *)
