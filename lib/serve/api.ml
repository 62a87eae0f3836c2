module Telemetry = Repro_engine.Telemetry
module Histogram = Repro_obs.Histogram
module Perf_table = Hieropt.Perf_table

type t = { registry : Registry.t; version : string; started : float }

let create ?(version = "dev") ~registry () =
  { registry; version; started = Unix.gettimeofday () }

let registry t = t.registry
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

let performance_of_body body =
  let ( let* ) = Result.bind in
  let* j = Json.of_string body in
  let field name = Json.get_float name j in
  let* kvco = field "kvco" in
  let* ivco = field "ivco" in
  let* jvco = field "jvco" in
  let* fmin = field "fmin" in
  let* fmax = field "fmax" in
  Ok { Repro_spice.Vco_measure.kvco; ivco; jvco; fmin; fmax }

let params_to_json (p : Repro_circuit.Topologies.vco_params) =
  let values = [| p.wn; p.ln; p.wp; p.lp; p.wcn; p.wcp; p.lc |] in
  Json.Obj
    (Array.to_list
       (Array.map2
          (fun name v -> (name, Json.Num v))
          Repro_circuit.Topologies.vco_param_names values))

(* --- responses -------------------------------------------------------- *)

let json_body j = Json.to_string j
let error_body msg = json_body (Json.Obj [ ("error", Json.Str msg) ])
let ok body = (200, [], body)
let bad_request msg = (400, [], error_body msg)
let not_found () = (404, [], error_body "not found")

let method_not_allowed allow =
  (405, [ ("Allow", allow) ], error_body "method not allowed")

let registry_error = function
  | Registry.Unknown_model _ as e -> (404, [], error_body (Registry.error_to_string e))
  | Registry.Invalid_id _ as e -> (404, [], error_body (Registry.error_to_string e))
  | Registry.Load_failure _ as e ->
    (500, [], error_body (Registry.error_to_string e))

(* --- endpoints -------------------------------------------------------- *)

let healthz t =
  let models = List.length (Registry.list t.registry) in
  ok
    (json_body
       (Json.Obj
          [
            ("status", Json.Str "ok");
            ("version", Json.Str t.version);
            ("started_at", Json.Num t.started);
            ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.started));
            ("models", Json.Num (float_of_int models));
            ( "models_loaded",
              Json.Num (float_of_int (Registry.loaded_count t.registry)) );
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
  (* one coherent evaluation-budget object derived from the raw
     counters: how many exact evaluations were requested, and how the
     surrogate pre-screen / eval cache / simulator split them *)
  let evals =
    let counter name =
      match List.assoc_opt name entries with
      | Some (`Counter v) -> v
      | _ -> 0
    in
    let avoided = counter "eval.avoided" in
    let cached = counter "eval.cache_hits" in
    let simulated = counter "eval.runs" in
    let requested = avoided + cached + simulated in
    let num n = Json.Num (float_of_int n) in
    Json.Obj
      [
        ("requested", num requested);
        ("avoided", num avoided);
        ("cached", num cached);
        ("simulated", num simulated);
        ( "avoided_ratio",
          Json.Num
            (if requested > 0 then
               float_of_int avoided /. float_of_int requested
             else 0.0) );
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("timers", Json.Obj timers);
      ("evals", evals);
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

let prom_content_type =
  [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ]

(* JSON is the default; ?format=prom renders the same snapshot surface
   as Prometheus text exposition *)
let metrics req =
  match Option.value ~default:"json" (query_param req "format") with
  | "json" -> ok (json_body (metrics_json ()))
  | "prom" | "prometheus" -> (200, prom_content_type, Repro_prof.Prom.render ())
  | other ->
    bad_request (Printf.sprintf "format: expected json or prom, got %S" other)

let models t =
  let infos = Registry.list t.registry in
  let entry (i : Registry.info) =
    Json.Obj
      [
        ("id", Json.Str i.id);
        ("loaded", Json.Bool i.loaded);
        ( "entries",
          match i.entries with
          | Some n -> Json.Num (float_of_int n)
          | None -> Json.Null );
      ]
  in
  ok (json_body (Json.Obj [ ("models", Json.Arr (List.map entry infos)) ]))

(* --- per-reactor hot-path state --------------------------------------- *)

(* Each reactor domain keeps its own model handles (revalidated against
   the on-disk fingerprint with one lock-free stat per request — the
   shared LRU mutex is only taken on miss/reload) and a reusable
   serialisation buffer, so the hot query route neither contends nor
   allocates scratch per request. *)
type scratch = {
  buf : Buffer.t;
  handles : (string, Perf_table.t * float * int) Hashtbl.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { buf = Buffer.create 4096; handles = Hashtbl.create 4 })

let local_table t sc id =
  match Registry.fingerprint t.registry id with
  | Error e ->
    Hashtbl.remove sc.handles id;
    Error e
  | Ok (mtime, size) -> (
    match Hashtbl.find_opt sc.handles id with
    | Some (table, m, s) when m = mtime && s = size -> Ok table
    | _ -> (
      match Registry.get t.registry id with
      | Error e ->
        Hashtbl.remove sc.handles id;
        Error e
      | Ok table ->
        Hashtbl.replace sc.handles id (table, mtime, size);
        Ok table))

(* direct serialisation of the query response into the reactor's
   scratch buffer — byte-for-byte what [Json.to_string] produces for
   the equivalent tree (asserted by test), without building the tree *)
let render_query_response sc ~id results =
  let buf = sc.buf in
  Buffer.clear buf;
  let num x = Buffer.add_string buf (Json.float_repr x) in
  let triple name (nominal, lo, hi) =
    Buffer.add_string buf name;
    Buffer.add_string buf "{\"nominal\":";
    num nominal;
    Buffer.add_string buf ",\"min\":";
    num lo;
    Buffer.add_string buf ",\"max\":";
    num hi;
    Buffer.add_char buf '}'
  in
  (* the id passed the registry's safe-name check: no characters that
     need JSON escaping *)
  Buffer.add_string buf "{\"model\":\"";
  Buffer.add_string buf id;
  Buffer.add_string buf "\",\"count\":";
  num (float_of_int (Array.length results));
  Buffer.add_string buf ",\"results\":[";
  Array.iteri
    (fun i (pe : Perf_table.point_eval) ->
      if i > 0 then Buffer.add_char buf ',';
      triple "{\"kvco\":" pe.q_kvco;
      triple ",\"ivco\":" pe.q_ivco;
      triple ",\"jvco\":" pe.q_jvco;
      Buffer.add_string buf ",\"fmin\":";
      num pe.q_fmin;
      Buffer.add_string buf ",\"fmax\":";
      num pe.q_fmax;
      Buffer.add_char buf '}')
    results;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let query t id body =
  let sc = Domain.DLS.get scratch_key in
  match local_table t sc id with
  | Error e -> registry_error e
  | Ok table -> (
    match points_of_body body with
    | Error msg -> bad_request msg
    | Ok points ->
      let results = Perf_table.eval_points table points in
      Telemetry.incr "serve.queries";
      Telemetry.incr ~by:(Array.length points) "serve.points_queried";
      ok (render_query_response sc ~id results))

(* renderers are pure functions of the table, so the body is
   byte-identical to `hieropt export` over the same model directory *)
let export t (req : Http.request) id =
  let sc = Domain.DLS.get scratch_key in
  match local_table t sc id with
  | Error e -> registry_error e
  | Ok table -> (
    let render f =
      Telemetry.incr "serve.exports";
      ( 200,
        [ ("Content-Type", "text/plain; charset=utf-8") ],
        f table )
    in
    match Option.value ~default:"va" (query_param req "format") with
    | "va" | "verilog-a" -> render Repro_netlist.Export.verilog_a
    | "spice" -> render (fun table -> Repro_netlist.Export.spice table)
    | other ->
      bad_request
        (Printf.sprintf "format: expected va or spice, got %S" other))

let verify t id body =
  let sc = Domain.DLS.get scratch_key in
  match local_table t sc id with
  | Error e -> registry_error e
  | Ok table -> (
    match performance_of_body body with
    | Error msg -> bad_request msg
    | Ok perf ->
      let params = Perf_table.params_of_perf table perf in
      Telemetry.incr "serve.verifies";
      ok
        (json_body
           (Json.Obj [ ("model", Json.Str id); ("params", params_to_json params) ])))

(* every route lives under /v1; an unversioned path routes as the
   empty path, which no endpoint matches *)
let route_path (req : Http.request) =
  match req.path with "v1" :: rest -> rest | _ -> []

(* stable label per route, so latency histograms have a bounded name
   set regardless of what ids/paths clients throw at the server *)
let endpoint_of_path = function
  | [ "healthz" ] -> "healthz"
  | [ "metrics" ] -> "metrics"
  | [ "models" ] -> "models"
  | [ "models"; _; "query" ] -> "query"
  | [ "models"; _; "verify" ] -> "verify"
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
    | "GET", [ "metrics" ] -> metrics req
    | "GET", [ "models" ] -> models t
    | "POST", [ "models"; id; "query" ] -> query t id req.body
    | "POST", [ "models"; id; "verify" ] -> verify t id req.body
    | "GET", [ "models"; id; "export" ] -> export t req id
    | _, [ "healthz" ] | _, [ "metrics" ] | _, [ "models" ] ->
      method_not_allowed "GET"
    | _, [ "models"; _; ("query" | "verify") ] -> method_not_allowed "POST"
    | _, [ "models"; _; "export" ] -> method_not_allowed "GET"
    | _ -> not_found ()
  with
  | response -> response
  | exception exn ->
    Telemetry.incr "serve.handler_errors";
    (500, [], error_body (Printexc.to_string exn))
