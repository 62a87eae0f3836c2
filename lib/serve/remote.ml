module Telemetry = Repro_engine.Telemetry

exception Remote_unavailable of string

(* An outage starts at a fallback and ends at the next answered query.
   During one, each query tries the server once, without the client's
   retries and their backoff, so a dead server costs one connection
   attempt per query; one warning names it.  Queries never stop trying:
   a transient error must not turn the rest of the run into
   fallbacks. *)
let model_query ?fallback ~client ~model () : Hieropt.Pll_problem.model_query =
  let outage = Atomic.make false in
  fun points ->
    let retries = if Atomic.get outage then Some 0 else None in
    match Client.query_points ?retries client ~model points with
    | Ok results ->
      Atomic.set outage false;
      Telemetry.incr "serve.remote_queries";
      results
    | Error err -> (
      let msg = Client.error_to_string err in
      match fallback with
      | Some table ->
        Telemetry.incr "serve.remote_fallbacks";
        if not (Atomic.exchange outage true) then
          Telemetry.warn ~key:"serve.remote"
            "falling back to local model until the server answers: %s" msg;
        Hieropt.Perf_table.eval_points table points
      | None -> raise (Remote_unavailable msg))

let parse_endpoint spec =
  let bad = Error "expected HOST:PORT" in
  match String.rindex_opt spec ':' with
  | None -> bad
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
    | _ -> bad)
