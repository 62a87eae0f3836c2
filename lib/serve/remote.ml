module Telemetry = Repro_engine.Telemetry

exception Remote_unavailable of string

let model_query ?fallback ~client ~model () : Hieropt.Pll_problem.model_query =
 fun points ->
  match Client.query_points client ~model points with
  | Ok results ->
    Telemetry.incr "serve.remote_queries";
    results
  | Error err -> (
    let msg = Client.error_to_string err in
    match fallback with
    | Some table ->
      Telemetry.incr "serve.remote_fallbacks";
      Telemetry.warn ~key:"serve.remote" "falling back to local model: %s" msg;
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
