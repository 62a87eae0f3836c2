module E = Repro_engine
module Json = Repro_serve.Json
module Http = Repro_serve.Http
module H = Hieropt.Hierarchy
module P = Repro_moo.Problem
module V = Repro_spice.Vco_measure
module T = Repro_circuit.Topologies

type t = {
  version : string;
  salt : string;
  cfg : H.config;
  vco : P.t;
  pll : (P.t * string) option;  (* problem, model fingerprint *)
  cache : E.Cache.t;
  started : float;
}

let create ?(version = "dev") ?model ~config () =
  let pll =
    Option.map
      (fun m ->
        ( Hieropt.Pll_problem.problem (H.pll_config_of config m),
          Protocol.model_fingerprint m ))
      model
  in
  {
    version;
    salt = H.config_salt config;
    cfg = config;
    vco = H.circuit_problem config;
    pll;
    cache = E.Cache.create ();
    started = Unix.gettimeofday ();
  }

let salt t = t.salt
let cache t = t.cache

let problems t =
  t.vco.P.name :: (match t.pll with Some (p, _) -> [ p.P.name ] | None -> [])

(* ---- responses ---------------------------------------------------- *)

let json_body j = Json.to_string j
let error_body msg = json_body (Json.Obj [ ("error", Json.Str msg) ])
let ok body = (200, [], body)
let bad_request msg = (400, [], error_body msg)
let not_found () = (404, [], error_body "not found")
let conflict msg = (409, [], error_body msg)

let method_not_allowed allow =
  (405, [ ("Allow", allow) ], error_body "method not allowed")

let text = [ ("Content-Type", "text/plain; charset=utf-8") ]

(* ---- endpoints ---------------------------------------------------- *)

let healthz t =
  ok
    (json_body
       (Json.Obj
          ([
             ("status", Json.Str "ok");
             ("role", Json.Str "worker");
             ("version", Json.Str t.version);
             ("salt", Json.Str t.salt);
             ("jobs", Json.Num (float_of_int (E.Config.jobs ())));
             ( "problems",
               Json.Arr (List.map (fun n -> Json.Str n) (problems t)) );
             ("started_at", Json.Num t.started);
             ( "uptime_seconds",
               Json.Num (Unix.gettimeofday () -. t.started) );
             ( "cache_entries",
               Json.Num (float_of_int (E.Cache.length t.cache)) );
             ("cache_hits", Json.Num (float_of_int (E.Cache.hits t.cache)));
             ( "cache_misses",
               Json.Num (float_of_int (E.Cache.misses t.cache)) );
           ]
          @
          match t.pll with
          | Some (_, hash) -> [ ("model_hash", Json.Str hash) ]
          | None -> [])))

(* one Monte-Carlo sample shard: rebuild the netlist from the 7-float
   parameter vector and evaluate each pre-split stream exactly as
   Variation_model's local path would — same measurement options, same
   Process.sample call, so the outcome rows are bit-identical *)
let run_mc t ~echo (req : Protocol.mc_request) =
  if req.Protocol.mc_salt <> t.salt then
    conflict
      (Printf.sprintf "config salt mismatch: request %s, worker %s"
         req.Protocol.mc_salt t.salt)
  else if Array.length req.Protocol.params <> 7 then
    bad_request "params: expected the 7-float vco_params vector"
  else begin
    let m = t.cfg.H.measure in
    let net =
      H.circuit_netlist t.cfg (T.vco_params_of_vector req.Protocol.params)
    in
    let trial perturbed =
      match V.characterise_netlist ~options:m perturbed with
      | Ok p -> Ok p
      | Error f -> Error (V.failure_to_string f)
    in
    let streams = req.Protocol.streams in
    let n = Array.length streams in
    E.Telemetry.incr "dist.worker_mc_trials" ~by:n;
    let chunk = max 1 (n / E.Pool.size (E.Pool.get_default ())) in
    let outcomes =
      E.Parmap.map ~chunk
        (fun s ->
          trial (Repro_circuit.Process.sample t.cfg.H.process s net))
        streams
    in
    ok
      (json_body
         (Protocol.with_trace_echo (echo ())
            (Protocol.results_to_json
               (Array.map Protocol.perf_row_of_outcome outcomes))))
  end

let run_eval t ~echo (req : Protocol.eval_request) =
  if req.Protocol.salt <> t.salt then
    conflict
      (Printf.sprintf "config salt mismatch: request %s, worker %s"
         req.Protocol.salt t.salt)
  else begin
    let problem =
      if req.Protocol.problem = t.vco.P.name then Ok t.vco
      else
        match t.pll with
        | Some (p, hash) when req.Protocol.problem = p.P.name ->
          if req.Protocol.model_hash = Some hash then Ok p
          else
            Error
              (conflict
                 (Printf.sprintf
                    "model hash mismatch: request %s, worker %s"
                    (Option.value req.Protocol.model_hash ~default:"<none>")
                    hash))
        | _ ->
          Error
            ((404, [], error_body
                ("unknown problem: " ^ req.Protocol.problem)))
    in
    match problem with
    | Error resp -> resp
    | Ok problem ->
      let points = req.Protocol.points in
      (match
         Array.iter
           (fun p ->
             if Array.length p <> P.n_vars problem then
               failwith "point arity does not match the problem")
           points
       with
      | () ->
        E.Telemetry.incr "dist.worker_eval_points" ~by:(Array.length points);
        (* the worker's own cache + pool path: identical code to a
           local run, so results (and cache lines) agree byte for
           byte *)
        let evals =
          P.parallel_evaluator ~cache:t.cache ~salt:t.salt () problem points
        in
        ok
          (json_body
             (Protocol.with_trace_echo (echo ())
                (Protocol.results_to_json (Array.map P.pack evals))))
      | exception Failure msg -> bad_request msg)
  end

let eval t body =
  match Json.of_string body with
  | Error msg -> bad_request msg
  | Ok j ->
    (* propagated trace context: tag this worker's span with the
       coordinator's trace/parent ids and echo wall-clock
       receive/reply stamps so the merge step can estimate the clock
       offset.  [t_recv] is taken before any evaluation work. *)
    let ctx = Protocol.trace_ctx_of_json j in
    let t_recv = Unix.gettimeofday () in
    let echo () =
      Option.map
        (fun (_ : Protocol.trace_ctx) ->
          {
            Protocol.span =
              Option.value ~default:(-1) (Repro_obs.Trace.current_span ());
            t_recv;
            t_replied = Unix.gettimeofday ();
          })
        ctx
    in
    let dispatch () =
      match Json.get_string "problem" j with
      | Error msg -> bad_request msg
      | Ok "mc" -> (
        match Protocol.mc_request_of_json j with
        | Ok req -> run_mc t ~echo req
        | Error msg -> bad_request msg)
      | Ok _ -> (
        match Protocol.eval_request_of_json j with
        | Ok req -> run_eval t ~echo req
        | Error msg -> bad_request msg)
    in
    (match ctx with
    | Some c ->
      (* a negative parent means "traced coordinator, no open span":
         keep the trace tag but omit the parent link *)
      let args =
        ("trace", c.Protocol.trace)
        ::
        (if c.Protocol.parent >= 0 then
           [ ("parent", string_of_int c.Protocol.parent) ]
         else [])
      in
      Repro_obs.Trace.span "dist.work" ~args dispatch
    | None -> dispatch ())

(* ---- the shared-cache protocol ------------------------------------ *)

let cache_get t id =
  match E.Cache.find_by_id t.cache id with
  | Some (key, value) -> (200, text, E.Cache.entry_to_line key value)
  | None -> not_found ()

(* the key hash is recomputed by [entry_of_line], never trusted from
   the peer; [store] is first-writer-wins, so replays are harmless *)
let store_line t line =
  match E.Cache.entry_of_line (String.trim line) with
  | Some (key, value) ->
    E.Cache.store t.cache key value;
    Some key
  | None -> None

let cache_put t id body =
  match store_line t body with
  | Some key when E.Cache.key_id key = id -> (204, [], "")
  | Some _ -> bad_request "entry does not match the requested id"
  | None -> bad_request "malformed cache entry line"

let cache_put_bulk t body =
  let stored = ref 0 in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match store_line t line with
           | Some _ -> incr stored
           | None -> ());
  E.Telemetry.incr "dist.cache_warm_lines" ~by:!stored;
  ok (json_body (Json.Obj [ ("stored", Json.Num (float_of_int !stored)) ]))

(* ---- routing ------------------------------------------------------ *)

(* every route lives under /v1, as on the model server *)
let route_path (req : Http.request) =
  match req.Http.path with "v1" :: rest -> rest | _ -> []

let endpoint_of_path = function
  | [ "healthz" ] -> "healthz"
  | [ "eval" ] -> "eval"
  | [ "metrics" ] -> "metrics"
  | "cache" :: _ -> "cache"
  | _ -> "other"

(* same surface as the model server's /v1/metrics: JSON by default,
   Prometheus text with ?format=prom *)
let metrics (req : Http.request) =
  match
    Option.value ~default:"json" (Repro_serve.Api.query_param req "format")
  with
  | "json" -> ok (json_body (Repro_serve.Api.metrics_json ()))
  | "prom" | "prometheus" ->
    ( 200,
      [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ],
      Repro_prof.Prom.render () )
  | other ->
    bad_request (Printf.sprintf "format: expected json or prom, got %S" other)

let handler t (req : Http.request) =
  E.Telemetry.incr "dist.requests";
  let path = route_path req in
  let endpoint = endpoint_of_path path in
  let latency = Repro_obs.Histogram.get ("dist.latency." ^ endpoint) in
  Repro_obs.Histogram.time latency @@ fun () ->
  Repro_obs.Trace.span ("dist." ^ endpoint) ~args:[ ("method", req.Http.meth) ]
  @@ fun () ->
  match
    match (req.Http.meth, path) with
    | "GET", [ "healthz" ] -> healthz t
    | "GET", [ "metrics" ] -> metrics req
    | "POST", [ "eval" ] -> eval t req.Http.body
    | "GET", [ "cache"; id ] -> cache_get t id
    | "PUT", [ "cache"; id ] -> cache_put t id req.Http.body
    | "PUT", [ "cache" ] -> cache_put_bulk t req.Http.body
    | _, [ "healthz" ] | _, [ "metrics" ] -> method_not_allowed "GET"
    | _, [ "eval" ] -> method_not_allowed "POST"
    | _, [ "cache" ] | _, [ "cache"; _ ] -> method_not_allowed "GET, PUT"
    | _ -> not_found ()
  with
  | response -> response
  | exception exn ->
    E.Telemetry.incr "dist.handler_errors";
    (500, [], error_body (Printexc.to_string exn))

let serve ?addr ?port ?(reactors = 2) ?request_timeout t =
  Repro_serve.Server.start_with ?addr ?port ~reactors ?request_timeout
    ~handler:(handler t) ()
