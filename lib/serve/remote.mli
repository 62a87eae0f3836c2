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
    ([serve.remote_fallbacks]) records the downgrade.  Without a
    fallback, server failure raises {!Remote_unavailable}. *)

exception Remote_unavailable of string

val model_query :
  ?fallback:Hieropt.Perf_table.t ->
  client:Client.t ->
  model:string ->
  unit ->
  Hieropt.Pll_problem.model_query

val parse_endpoint : string -> (string * int * string, string) result
(** Parse a [HOST:PORT] or [HOST:PORT/MODEL] spec (model defaults to
    ["default"]) as taken by the CLI's [--remote] flags. *)
