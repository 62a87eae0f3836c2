module Json = Repro_util.Json
module Telemetry = Repro_engine.Telemetry
module Histogram = Repro_obs.Histogram
module Perf_table = Hieropt.Perf_table

type t = { model : Perf_table.t; version : string; started : float }

let model_id = "default"

let create ?(version = "dev") ~model () =
  { model; version; started = Unix.gettimeofday () }

let max_batch = 65536

(* --- wire codec ------------------------------------------------------- *)

let triple_to_json (nominal, lo, hi) =
  Json.Obj
    [ ("nominal", Json.Num nominal); ("min", Json.Num lo); ("max", Json.Num hi) ]

(* prefix accessor errors with where in the message we were looking *)
let at path = Result.map_error (fun e -> path ^ ": " ^ e)

let triple_of_json path j =
  let ( let* ) = Result.bind in
  let* nominal = at path (Json.get_float "nominal" j) in
  let* lo = at path (Json.get_float "min" j) in
  let* hi = at path (Json.get_float "max" j) in
  Ok (nominal, lo, hi)

let point_eval_to_json (pe : Perf_table.point_eval) =
  Json.Obj
    [
      ("kvco", triple_to_json pe.q_kvco);
      ("ivco", triple_to_json pe.q_ivco);
      ("jvco", triple_to_json pe.q_jvco);
      ("fmin", Json.Num pe.q_fmin);
      ("fmax", Json.Num pe.q_fmax);
    ]

let point_eval_of_json j =
  let ( let* ) = Result.bind in
  let* kv = Json.get_field "kvco" j in
  let* iv = Json.get_field "ivco" j in
  let* jv = Json.get_field "jvco" j in
  let* q_kvco = triple_of_json "kvco" kv in
  let* q_ivco = triple_of_json "ivco" iv in
  let* q_jvco = triple_of_json "jvco" jv in
  let* q_fmin = Json.get_float "fmin" j in
  let* q_fmax = Json.get_float "fmax" j in
  Ok { Perf_table.q_kvco; q_ivco; q_jvco; q_fmin; q_fmax }

let point_of_json path j =
  let ( let* ) = Result.bind in
  let* kvco = at path (Json.get_float "kvco" j) in
  let* ivco = at path (Json.get_float "ivco" j) in
  Ok (kvco, ivco)

(* accept {"points":[...]} or one bare {"kvco":..,"ivco":..} object *)
let points_of_body body =
  let ( let* ) = Result.bind in
  let* j = Json.of_string body in
  match Json.member "points" j with
  | Some (Json.Arr items) ->
    if List.length items > max_batch then
      Error (Printf.sprintf "batch exceeds %d points" max_batch)
    else
      let rec decode i acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | item :: rest ->
          let* p = point_of_json (Printf.sprintf "points[%d]" i) item in
          decode (i + 1) (p :: acc) rest
      in
      decode 0 [] items
  | Some _ -> Error "points: expected an array"
  | None ->
    let* p = point_of_json "request" j in
    Ok [| p |]

(* --- responses -------------------------------------------------------- *)

let json_body j = Json.to_string j
let error_body msg = json_body (Json.Obj [ ("error", Json.Str msg) ])
let ok body = (200, [], body)
let bad_request msg = (400, [], error_body msg)
let not_found () = (404, [], error_body "not found")

let method_not_allowed allow =
  (405, [ ("Allow", allow) ], error_body "method not allowed")

let unknown_model id =
  (404, [], error_body (Printf.sprintf "unknown model %S" id))

(* --- endpoints -------------------------------------------------------- *)

let healthz t =
  ok
    (json_body
       (Json.Obj
          [
            ("status", Json.Str "ok");
            ("version", Json.Str t.version);
            ("started_at", Json.Num t.started);
            ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.started));
          ]))

(* counters/timers straight from the Telemetry snapshot plus quantile
   summaries of every registered histogram — one combined JSON object
   shared by the endpoint and the CLI's local --metrics printer *)
let metrics_json () =
  let entries = Telemetry.snapshot () in
  let counters =
    List.filter_map
      (function
        | k, `Counter v -> Some (k, Json.Num (float_of_int v)) | _ -> None)
      entries
  in
  let timers =
    List.filter_map
      (function k, `Timer v -> Some (k, Json.Num v) | _ -> None)
      entries
  in
  let histogram (name, h) =
    let s = Histogram.stats h in
    ( name,
      Json.Obj
        [
          ("count", Json.Num (float_of_int s.Histogram.count));
          ("sum", Json.Num s.Histogram.sum);
          ("min", Json.Num s.Histogram.min);
          ("max", Json.Num s.Histogram.max);
          ("p50", Json.Num s.Histogram.p50);
          ("p90", Json.Num s.Histogram.p90);
          ("p99", Json.Num s.Histogram.p99);
        ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("timers", Json.Obj timers);
      ("histograms", Json.Obj (List.map histogram (Histogram.all ())));
    ]

(* minimal query-string accessor over the raw target — the API's only
   query parameters are format selectors, so there is no percent
   decoding here (format values are plain tokens) *)
let query_param (req : Http.request) name =
  match String.index_opt req.Http.target '?' with
  | None -> None
  | Some i ->
    let qs =
      String.sub req.Http.target (i + 1)
        (String.length req.Http.target - i - 1)
    in
    List.find_map
      (fun pair ->
        match String.index_opt pair '=' with
        | Some j when String.sub pair 0 j = name ->
          Some (String.sub pair (j + 1) (String.length pair - j - 1))
        | _ -> None)
      (String.split_on_char '&' qs)

let query t body =
  match points_of_body body with
  | Error msg -> bad_request msg
  | Ok points ->
    let results = Perf_table.eval_points t.model points in
    Telemetry.incr "serve.queries";
    Telemetry.incr ~by:(Array.length points) "serve.points_queried";
    ok
      (json_body
         (Json.Obj
            [
              ("model", Json.Str model_id);
              ("count", Json.Num (float_of_int (Array.length results)));
              ( "results",
                Json.Arr (Array.to_list (Array.map point_eval_to_json results))
              );
            ]))

(* renderers are pure functions of the table, so the body is
   byte-identical to `hieropt export` over the same model directory *)
let export t (req : Http.request) =
  let render f =
    Telemetry.incr "serve.exports";
    (200, [ ("Content-Type", "text/plain; charset=utf-8") ], f t.model)
  in
  match Option.value ~default:"va" (query_param req "format") with
  | "va" | "verilog-a" -> render Repro_netlist.Export.verilog_a
  | "spice" -> render (fun table -> Repro_netlist.Export.spice table)
  | other ->
    bad_request (Printf.sprintf "format: expected va or spice, got %S" other)

(* every route lives under /v1; an unversioned path routes as the
   empty path, which no endpoint matches *)
let route_path (req : Http.request) =
  match req.path with "v1" :: rest -> rest | _ -> []

(* stable label per route, so latency histograms have a bounded name
   set regardless of what ids/paths clients throw at the server *)
let endpoint_of_path = function
  | [ "healthz" ] -> "healthz"
  | [ "metrics" ] -> "metrics"
  | [ "models"; _; "query" ] -> "query"
  | [ "models"; _; "export" ] -> "export"
  | _ -> "other"

let handle t (req : Http.request) =
  Telemetry.incr "serve.requests";
  let path = route_path req in
  let endpoint = endpoint_of_path path in
  let latency = Repro_obs.Histogram.get ("serve.latency." ^ endpoint) in
  Repro_obs.Histogram.time latency @@ fun () ->
  (* propagated trace context (clients send X-Trace-Id/X-Parent-Span
     while tracing): tagging the handler span lets a merged trace nest
     this request under the caller's span *)
  let targs =
    let hdr name key acc =
      match Http.header name req.headers with
      | Some v -> (key, v) :: acc
      | None -> acc
    in
    hdr "x-trace-id" "trace" (hdr "x-parent-span" "parent" [ ("method", req.meth) ])
  in
  Repro_obs.Trace.span ("http." ^ endpoint) ~args:targs
  @@ fun () ->
  match
    match (req.meth, path) with
    | "GET", [ "healthz" ] -> healthz t
    | "GET", [ "metrics" ] -> ok (json_body (metrics_json ()))
    | _, [ "models"; id; ("query" | "export") ] when id <> model_id ->
      unknown_model id
    | "POST", [ "models"; _; "query" ] -> query t req.body
    | "GET", [ "models"; _; "export" ] -> export t req
    | _, ([ "healthz" ] | [ "metrics" ]) -> method_not_allowed "GET"
    | _, [ "models"; _; "query" ] -> method_not_allowed "POST"
    | _, [ "models"; _; "export" ] -> method_not_allowed "GET"
    | _ -> not_found ()
  with
  | response -> response
  | exception exn ->
    Telemetry.incr "serve.handler_errors";
    (500, [], error_body (Printexc.to_string exn))
