(* The model server end to end: JSON codec exactness, HTTP parsing,
   and a loopback server whose answers must be bit-identical to
   querying the in-process table. *)

module H = Hieropt
module S = Repro_serve
module Json = Repro_util.Json
module Http = S.Http

let bits = Int64.bits_of_float

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Arr [ Json.Null; Json.Bool true; Json.Str "x\"y\n" ]);
        ("empty", Json.Obj []);
        ("neg", Json.Num (-0.0078125));
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrips" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_strictness () =
  let rejected s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  List.iter rejected
    [ "{\"a\":1} x"; "[1,]"; "{\"a\":}"; "01"; "+1"; "nul"; "\"\\q\"";
      "[1 2]"; "{'a':1}"; "" ];
  (* \u escapes, including a surrogate pair, decode to UTF-8 *)
  match Json.of_string "\"\\u00e9\\ud83d\\ude00\"" with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape decode failed"

let test_json_duplicate_key () =
  let dup s =
    match Json.of_string s with
    | Ok j -> Json.duplicate_key j
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check (option string)) "clean" None
    (dup "{\"a\":1,\"b\":{\"a\":2},\"c\":[{\"a\":3}]}");
  Alcotest.(check (option string)) "top-level" (Some "a")
    (dup "{\"a\":1,\"a\":2}");
  Alcotest.(check (option string)) "nested path" (Some "serve.qps")
    (dup "{\"serve\":{\"qps\":1,\"p50\":2,\"qps\":3}}");
  Alcotest.(check (option string)) "inside array" (Some "xs[1].k")
    (dup "{\"xs\":[{\"k\":1},{\"k\":1,\"k\":2}]}")

let prop_float_codec_lossless =
  (* the float codec is the bit-identity guarantee: every finite float
     must survive encode/decode with the same bit pattern *)
  QCheck.Test.make ~name:"JSON float codec is lossless" ~count:1000
    QCheck.(
      oneof
        [
          float;
          float_range (-1e18) 1e18;
          float_range (-1e-6) 1e-6;
          oneofl [ 0.0; -0.0; 1e-312; Float.max_float; Float.min_float ];
        ])
    (fun x ->
      QCheck.assume (Float.is_finite x);
      match Json.of_string (Json.float_repr x) with
      | Ok (Json.Num y) -> bits y = bits x
      | _ -> false)

(* ---- http ---- *)

(* one message through the server's parser: a fresh connection state
   machine fed the whole string at once *)
let parse_request raw =
  match
    S.Conn.feed (S.Conn.create ()) (Bytes.of_string raw) 0 (String.length raw)
  with
  | S.Conn.Request req :: _ -> Ok req
  | S.Conn.Protocol_error e :: _ -> Error e
  | [] -> Alcotest.failf "no event for %S" raw

let test_http_parse_request () =
  let raw =
    "POST /models/m-1/query?trace=1 HTTP/1.1\r\nHost: x\r\n\
     Content-Length: 4\r\nX-Mixed-Case: Kept\r\n\r\nbodyEXTRA"
  in
  match parse_request raw with
  | Error e -> Alcotest.failf "parse failed: %s" (Http.error_to_string e)
  | Ok req ->
    Alcotest.(check string) "meth" "POST" req.Http.meth;
    Alcotest.(check (list string)) "path"
      [ "models"; "m-1"; "query" ]
      req.Http.path;
    Alcotest.(check string) "body" "body" req.Http.body;
    Alcotest.(check (option string)) "header, case-insensitive" (Some "Kept")
      (Http.header "x-mixed-case" req.Http.headers);
    Alcotest.(check bool) "1.1 keeps alive" true (Http.keep_alive req)

let test_http_parse_errors () =
  (match parse_request "GARBAGE\r\n\r\n" with
  | Error (`Bad_request _) -> ()
  | _ -> Alcotest.fail "malformed request line should be Bad_request");
  (match parse_request "GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n" with
  | Error (`Bad_request _) -> ()
  | _ -> Alcotest.fail "bad content-length should be Bad_request");
  match
    parse_request "GET / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
  with
  | Error (`Too_large _) -> ()
  | _ -> Alcotest.fail "huge content-length should be Too_large"

let test_http_connection_header () =
  let with_conn v =
    Printf.sprintf "GET / HTTP/1.1\r\nConnection: %s\r\n\r\n" v
  in
  let ka raw =
    match parse_request raw with
    | Ok req -> Http.keep_alive req
    | Error e -> Alcotest.failf "parse failed: %s" (Http.error_to_string e)
  in
  Alcotest.(check bool) "close" false (ka (with_conn "close"));
  Alcotest.(check bool) "Close" false (ka (with_conn "Close"));
  Alcotest.(check bool) "1.0 default" false (ka "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 keep-alive" true
    (ka "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")

(* ---- conn state machine ---- *)

let feed_str conn s =
  S.Conn.feed conn (Bytes.of_string s) 0 (String.length s)

let test_conn_split_feeds () =
  (* a request arriving one byte at a time, terminator split across
     feeds, must yield exactly one Request with the right body *)
  let conn = S.Conn.create () in
  let raw =
    "POST /v1/models/m/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody"
  in
  let events = ref [] in
  String.iter
    (fun c -> events := !events @ feed_str conn (String.make 1 c))
    raw;
  match !events with
  | [ S.Conn.Request req ] ->
    Alcotest.(check string) "body" "body" req.Http.body;
    Alcotest.(check (list string)) "path"
      [ "v1"; "models"; "m"; "query" ]
      req.Http.path;
    Alcotest.(check bool) "no input parked" false (S.Conn.input_pending conn)
  | evs -> Alcotest.failf "expected one request, got %d events" (List.length evs)

let test_conn_pipelined () =
  (* two requests in one feed → two events, in order *)
  let conn = S.Conn.create () in
  let one = "GET /v1/healthz HTTP/1.1\r\n\r\n" in
  let two = "POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi" in
  match feed_str conn (one ^ two) with
  | [ S.Conn.Request a; S.Conn.Request b ] ->
    Alcotest.(check string) "first" "GET" a.Http.meth;
    Alcotest.(check string) "second" "POST" b.Http.meth;
    Alcotest.(check string) "second body" "hi" b.Http.body
  | evs -> Alcotest.failf "expected two requests, got %d events" (List.length evs)

let test_conn_protocol_error_breaks () =
  (* an oversized header line is one Protocol_error; the machine then
     parses nothing more, no matter what arrives *)
  let conn = S.Conn.create () in
  let raw =
    "GET / HTTP/1.1\r\nX-Big: " ^ String.make 9000 'a' ^ "\r\n\r\n"
  in
  (match feed_str conn raw with
  | [ S.Conn.Protocol_error (`Too_large _) ] -> ()
  | _ -> Alcotest.fail "oversized header line must be Too_large");
  Alcotest.(check bool) "broken" true (S.Conn.broken conn);
  Alcotest.(check int) "inert after break" 0
    (List.length (feed_str conn "GET / HTTP/1.1\r\n\r\n"))

let test_conn_response_bytes () =
  (* push_response queues exactly the blocking writer's bytes and the
     drain bookkeeping adds up *)
  let conn = S.Conn.create () in
  S.Conn.push_response ~keep_alive:true ~status:200 ~body:"{}" conn;
  let buf, off, len = S.Conn.output conn in
  let first = Bytes.sub_string buf off len in
  Alcotest.(check bool) "status line" true
    (String.length first > 17 && String.sub first 0 17 = "HTTP/1.1 200 OK\r\n");
  Alcotest.(check bool) "not closing" false (S.Conn.close_after_flush conn);
  S.Conn.output_consumed conn len;
  Alcotest.(check int) "drained" 0 (S.Conn.output_pending conn);
  S.Conn.push_response ~keep_alive:false ~status:503 ~body:"x" conn;
  Alcotest.(check bool) "close requested" true (S.Conn.close_after_flush conn)

(* ---- loopback server ---- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let temp_root () =
  let dir = Filename.temp_file "hieropt_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let with_root f =
  let root = temp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* [hieropt serve] serves what it loads from disk, and the archive keeps
   10 significant digits (%.9e) — so by default the server gets
   [Test_core.model] through a save and a load, and bit-identity claims
   compare against that loaded table, exactly as a real run would *)
let with_server ?request_timeout ?model f =
  let serve loaded =
    let api = S.Api.create ~version:"test" ~model:loaded () in
    let server = S.Server.start ~port:0 ?request_timeout ~api () in
    Fun.protect
      ~finally:(fun () ->
        S.Server.stop ~drain_timeout:2. server;
        S.Server.wait server)
      (fun () ->
        f ~loaded server
          (S.Client.create ~port:(S.Server.port server) ~retries:1 ()))
  in
  match model with
  | Some table -> serve table
  | None ->
    with_root @@ fun root ->
    H.Perf_table.save ~dir:root Test_core.model;
    serve (H.Perf_table.load ~dir:root)

let query_batch =
  (* sample points, interpolated points, and out-of-range clamps *)
  [| (400e6, 3e-3); (1.8e9, 10e-3); (512.5e6, 4.25e-3); (1e5, 1e-6);
     (1e12, 1.0); (777e6, 6.125e-3) |]

let check_client = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client error: %s" (S.Client.error_to_string e)

let test_serve_query_bit_identical () =
  with_server @@ fun ~loaded _server client ->
  let remote = check_client (S.Client.query_points client ~model:"default" query_batch) in
  let local = H.Perf_table.eval_points loaded query_batch in
  Alcotest.(check int) "count" (Array.length local) (Array.length remote);
  Array.iteri
    (fun i (l : H.Perf_table.point_eval) ->
      if l <> remote.(i) then
        Alcotest.failf "point %d differs after the HTTP roundtrip" i)
    local

let test_serve_endpoints () =
  with_server @@ fun ~loaded:_ _server client ->
  (* healthz *)
  let health = check_client (S.Client.get_json client "/v1/healthz") in
  (match Json.member "status" health with
  | Some (Json.Str "ok") -> ()
  | _ -> Alcotest.fail "healthz status");
  (* metrics: well-formed JSON with counters/timers objects *)
  let metrics = check_client (S.Client.get_json client "/v1/metrics") in
  (match (Json.member "counters" metrics, Json.member "timers" metrics) with
  | Some (Json.Obj _), Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "metrics shape");
  (* one batched query moves serve.queries by exactly one and
     serve.requests by at least one *)
  let counter name m =
    match Option.bind (Json.member "counters" m) (Json.member name) with
    | Some (Json.Num v) -> v
    | _ -> 0.0
  in
  let before = check_client (S.Client.get_json client "/v1/metrics") in
  ignore
    (check_client (S.Client.query_points client ~model:"default" query_batch));
  let after = check_client (S.Client.get_json client "/v1/metrics") in
  Alcotest.(check (float 0.0))
    "serve.queries grows by one" 1.0
    (counter "serve.queries" after -. counter "serve.queries" before);
  Alcotest.(check bool) "serve.requests grows" true
    (counter "serve.requests" after > counter "serve.requests" before);
  (* status mapping *)
  let status path meth body =
    match
      (if meth = "GET" then S.Client.get client path
       else S.Client.post client path ~body)
    with
    | Ok r -> r.Http.status
    | Error e -> Alcotest.failf "request failed: %s" (S.Client.error_to_string e)
  in
  Alcotest.(check int) "404 unknown path" 404 (status "/nope" "GET" "");
  Alcotest.(check int) "404 unknown v1 path" 404 (status "/v1/nope" "GET" "");
  (* a server serves one model: any other id is a 404, whatever the
     verb, and never a filesystem lookup *)
  List.iter
    (fun (path, meth) ->
      Alcotest.(check int) ("404 " ^ meth ^ " " ^ path) 404
        (status path meth "{\"kvco\":1,\"ivco\":1}"))
    [
      ("/v1/models/missing/query", "POST");
      ("/v1/models/missing/query", "GET");
      ("/v1/models/../export", "GET");
      ("/v1/models/missing/export", "GET");
      ("/v1/models", "GET");
      ("/v1/models/default/verify", "POST");
      ("/v1/models/default", "GET");
    ];
  Alcotest.(check int) "405 wrong verb" 405
    (status "/v1/models/default/query" "GET" "");
  Alcotest.(check int) "400 bad body" 400
    (status "/v1/models/default/query" "POST" "{");
  Alcotest.(check int) "400 missing field" 400
    (status "/v1/models/default/query" "POST" "{\"kvco\":1}");
  (* /v1/metrics is the JSON document whatever its query string *)
  List.iter
    (fun path ->
      match S.Client.get_json client path with
      | Ok m ->
        Alcotest.(check bool) (path ^ " is the JSON snapshot") true
          (Json.member "histograms" m <> None)
      | Error e ->
        Alcotest.failf "GET %s: %s" path (S.Client.error_to_string e))
    [ "/v1/metrics?format=prom"; "/v1/metrics?format=xml"; "/v1/metrics?x" ]

let test_serve_export () =
  with_server @@ fun ~loaded _server client ->
  let get path =
    match S.Client.get client path with
    | Ok r -> r
    | Error e -> Alcotest.failf "GET %s: %s" path (S.Client.error_to_string e)
  in
  (* the served bytes must equal the CLI exporter's output over the
     same loaded table — both call the same pure renderers *)
  let va = get "/v1/models/default/export?format=va" in
  Alcotest.(check int) "va status" 200 va.Http.status;
  Alcotest.(check (option string))
    "plain text" (Some "text/plain; charset=utf-8")
    (Http.header "content-type" va.Http.resp_headers);
  Alcotest.(check string) "va = local renderer"
    (Repro_netlist.Export.verilog_a loaded)
    va.Http.resp_body;
  Alcotest.(check string) "va is the default format" va.Http.resp_body
    (get "/v1/models/default/export").Http.resp_body;
  let spice = get "/v1/models/default/export?format=spice" in
  Alcotest.(check string) "spice = local renderer"
    (Repro_netlist.Export.spice loaded)
    spice.Http.resp_body;
  (* and the SPICE body round-trips through the front end *)
  let net =
    Repro_netlist.Elab.subckt_netlist
      (Repro_netlist.Parse.deck spice.Http.resp_body)
      "hieropt_vco"
  in
  Alcotest.(check bool) "served deck re-parses" true
    (Repro_circuit.Netlist.mos_count net > 0);
  Alcotest.(check int) "unknown format is a 400" 400
    (get "/v1/models/default/export?format=vhdl").Http.status;
  match S.Client.post client "/v1/models/default/export" ~body:"" with
  | Ok r -> Alcotest.(check int) "wrong verb is a 405" 405 r.Http.status
  | Error e -> Alcotest.failf "POST export: %s" (S.Client.error_to_string e)

let test_serve_unversioned_404 () =
  with_server @@ fun ~loaded:_ _server client ->
  let status path =
    match S.Client.get client path with
    | Ok r -> r.Http.status
    | Error e -> Alcotest.failf "GET %s: %s" path (S.Client.error_to_string e)
  in
  Alcotest.(check int) "/v1/healthz" 200 (status "/v1/healthz");
  List.iter
    (fun path -> Alcotest.(check int) path 404 (status path))
    [ "/healthz"; "/metrics"; "/models"; "/models/default/export" ]

(* the query response on the wire is byte-for-byte what Json.to_string
   produces for the result tree — the property the bit-identity
   guarantee (and every JSON consumer) rests on — and, over the
   committed fixture model, these exact bytes *)
let fixture_query_body =
  {|{"points":[{"kvco":400000000,"ivco":0.003},{"kvco":512500000,"ivco":0.00425}]}|}

let fixture_query_golden =
  {|{"model":"default","count":2,"results":[{"kvco":{"nominal":400000000,"min":390168812.588,"max":409831187.412},"ivco":{"nominal":0.003,"min":0.00293383633488,"max":0.00306616366512},"jvco":{"nominal":2.2028582237621793e-13,"min":1.430213662744001e-13,"max":2.9755027847803577e-13},"fmin":339464348.638873,"fmax":1344428975.1042397},{"kvco":{"nominal":512500000,"min":498811696.3633755,"max":526188303.6366245},"ivco":{"nominal":0.00425,"min":0.00420982155724307,"max":0.0042901784427569305},"jvco":{"nominal":1.9850973847549323e-13,"min":1.6929502325424693e-13,"max":2.2772445369673953e-13},"fmin":262367139.070412,"fmax":1290630289.2807574}]}|}

let test_serve_query_wire_bytes_golden () =
  (with_server ~model:(Test_core.fixture ()) @@ fun ~loaded:_ _server client ->
   match
     S.Client.post client "/v1/models/default/query" ~body:fixture_query_body
   with
   | Error e -> Alcotest.failf "query: %s" (S.Client.error_to_string e)
   | Ok r ->
     Alcotest.(check int) "fixture 200" 200 r.Http.status;
     Alcotest.(check string) "fixture wire bytes = golden" fixture_query_golden
       r.Http.resp_body);
  with_server @@ fun ~loaded server _client ->
  let results = H.Perf_table.eval_points loaded query_batch in
  let triple (nominal, lo, hi) =
    Json.Obj
      [ ("nominal", Json.Num nominal); ("min", Json.Num lo);
        ("max", Json.Num hi) ]
  in
  let expected =
    Json.to_string
      (Json.Obj
         [
           ("model", Json.Str "default");
           ("count", Json.Num (float_of_int (Array.length results)));
           ( "results",
             Json.Arr
               (Array.to_list
                  (Array.map
                     (fun (pe : H.Perf_table.point_eval) ->
                       Json.Obj
                         [
                           ("kvco", triple pe.q_kvco);
                           ("ivco", triple pe.q_ivco);
                           ("jvco", triple pe.q_jvco);
                           ("fmin", Json.Num pe.q_fmin);
                           ("fmax", Json.Num pe.q_fmax);
                         ])
                     results)) );
         ])
  in
  let body =
    Json.to_string
      (Json.Obj
         [ ( "points",
             Json.Arr
               (Array.to_list
                  (Array.map
                     (fun (k, i) ->
                       Json.Obj
                         [ ("kvco", Json.Num k); ("ivco", Json.Num i) ])
                     query_batch)) ) ])
  in
  let client = S.Client.create ~port:(S.Server.port server) () in
  match S.Client.post client "/v1/models/default/query" ~body with
  | Error e -> Alcotest.failf "query: %s" (S.Client.error_to_string e)
  | Ok r ->
    Alcotest.(check int) "200" 200 r.Http.status;
    Alcotest.(check string) "wire bytes = Json.to_string tree" expected
      r.Http.resp_body

let test_serve_healthz_info () =
  with_server @@ fun ~loaded:_ _server client ->
  let health = check_client (S.Client.get_json client "/v1/healthz") in
  let num name =
    match Json.member name health with
    | Some (Json.Num v) -> v
    | _ -> Alcotest.failf "healthz missing numeric %s" name
  in
  (match Json.member "version" health with
  | Some (Json.Str "test") -> ()
  | _ -> Alcotest.fail "healthz version");
  Alcotest.(check bool) "started_at plausible" true (num "started_at" > 0.0);
  Alcotest.(check bool) "uptime non-negative" true (num "uptime_seconds" >= 0.0);
  match health with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "no model counts"
      [ "status"; "version"; "started_at"; "uptime_seconds" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "healthz is not an object"

let test_serve_metrics_histograms () =
  with_server @@ fun ~loaded:_ _server client ->
  (* at least one query so the per-endpoint latency histogram exists *)
  ignore
    (check_client (S.Client.query_points client ~model:"default" query_batch));
  let metrics = check_client (S.Client.get_json client "/v1/metrics") in
  let hists =
    match Json.member "histograms" metrics with
    | Some (Json.Obj h) -> h
    | _ -> Alcotest.fail "metrics has no histograms object"
  in
  let q =
    match List.assoc_opt "serve.latency.query" hists with
    | Some j -> j
    | None -> Alcotest.fail "no serve.latency.query histogram"
  in
  let field name =
    match Json.member name q with
    | Some (Json.Num v) -> v
    | _ -> Alcotest.failf "histogram missing %s" name
  in
  Alcotest.(check bool) "count >= 1" true (field "count" >= 1.0);
  Alcotest.(check bool) "p50 <= p99" true (field "p50" <= field "p99");
  Alcotest.(check bool) "quantiles within [min, max]" true
    (field "min" <= field "p50" && field "p99" <= field "max")

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let test_serve_graceful_drain () =
  with_server @@ fun ~loaded:_ server _client ->
  let port = S.Server.port server in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let body = "{\"kvco\":400000000,\"ivco\":0.003}" in
  (* half a request: the server is now mid-read *)
  write_all fd
    (Printf.sprintf
       "POST /v1/models/default/query HTTP/1.1\r\nContent-Length: %d\r\n"
       (String.length body));
  Thread.delay 0.1;
  S.Server.stop ~drain_timeout:5. server;
  Thread.delay 0.1;
  (* the in-flight request must still complete... *)
  write_all fd ("\r\n" ^ body);
  (match Http.read_response (Http.Reader.of_fd fd) with
  | Ok resp ->
    Alcotest.(check int) "drained request answered" 200 resp.Http.status;
    Alcotest.(check (option string)) "told to close" (Some "close")
      (Http.header "connection" resp.Http.resp_headers)
  | Error e -> Alcotest.failf "drain response: %s" (Http.error_to_string e));
  S.Server.wait server;
  (* ...and the drained server must accept nothing new *)
  let fd2 = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect fd2 (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> Alcotest.fail "stopped server still accepting connections"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

(* ---- adversarial connections ---- *)

let connect_raw port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let with_raw port f =
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

(* whatever the hostile connection did, the server must still answer a
   well-behaved client afterwards *)
let still_serving client =
  let health = check_client (S.Client.get_json client "/v1/healthz") in
  match Json.member "status" health with
  | Some (Json.Str "ok") -> ()
  | _ -> Alcotest.fail "server no longer healthy"

let test_serve_pipelined_keepalive () =
  with_server @@ fun ~loaded:_ server client ->
  with_raw (S.Server.port server) @@ fun fd ->
  (* three requests in one burst on one connection: three responses, in
     order, all on the same socket *)
  let req = "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
  write_all fd (req ^ req ^ req);
  let reader = Http.Reader.of_fd fd in
  for i = 1 to 3 do
    match Http.read_response reader with
    | Ok resp -> Alcotest.(check int) (Printf.sprintf "pipelined %d" i) 200
                   resp.Http.status
    | Error e ->
      Alcotest.failf "pipelined response %d: %s" i (Http.error_to_string e)
  done;
  still_serving client

let test_serve_slowloris () =
  (* a client trickling a request slower than request_timeout must be
     reaped, not allowed to pin the server *)
  with_server ~request_timeout:0.4 @@ fun ~loaded:_ server client ->
  with_raw (S.Server.port server) @@ fun fd ->
  write_all fd "GET /v1/health";
  (* server should cut us off while we stall mid-head *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let closed =
    match Unix.read fd (Bytes.create 64) 0 64 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      false
  in
  Alcotest.(check bool) "slow connection reaped" true closed;
  still_serving client

let test_serve_oversized_requests () =
  with_server @@ fun ~loaded:_ server client ->
  let port = S.Server.port server in
  (* a header line beyond the per-line cap: 413 and close *)
  (with_raw port @@ fun fd ->
   write_all fd
     ("GET /v1/healthz HTTP/1.1\r\nX-Big: " ^ String.make 9000 'a'
    ^ "\r\n\r\n");
   match Http.read_response (Http.Reader.of_fd fd) with
   | Ok resp ->
     Alcotest.(check int) "oversized header -> 413" 413 resp.Http.status;
     Alcotest.(check (option string)) "told to close" (Some "close")
       (Http.header "connection" resp.Http.resp_headers)
   | Error e -> Alcotest.failf "oversized header: %s" (Http.error_to_string e));
  (* an announced body beyond max_body: rejected from the headers alone,
     without reading (or allocating) the body *)
  (with_raw port @@ fun fd ->
   write_all fd
     (Printf.sprintf
        "POST /v1/models/default/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        (Http.max_body + 1));
   match Http.read_response (Http.Reader.of_fd fd) with
   | Ok resp -> Alcotest.(check int) "oversized body -> 413" 413 resp.Http.status
   | Error e -> Alcotest.failf "oversized body: %s" (Http.error_to_string e));
  still_serving client

let test_serve_mid_request_disconnect () =
  with_server @@ fun ~loaded:_ server client ->
  let port = S.Server.port server in
  (* clients vanishing at every interesting point of the exchange *)
  List.iter
    (fun partial ->
      let fd = connect_raw port in
      write_all fd partial;
      Unix.close fd)
    [
      "";  (* connect and vanish *)
      "POST /v1/mo";  (* mid request-line *)
      "POST /v1/models/default/query HTTP/1.1\r\nContent-Le";  (* mid header *)
      "POST /v1/models/default/query HTTP/1.1\r\nContent-Length: 30\r\n\r\n{\"kv";
      (* mid body *)
    ];
  Thread.delay 0.1;
  still_serving client;
  (* and real work still round-trips bit-identically *)
  ignore
    (check_client (S.Client.query_points client ~model:"default" query_batch))

let test_serve_drain_under_load () =
  (* four closed-loop clients keep querying while the server drains:
     the drain must finish well inside its deadline without
     force-closing anyone, and every reply is an answer or a
     [Connect_failure] (refused or cut connection) *)
  with_server @@ fun ~loaded:_ server _client ->
  let port = S.Server.port server in
  let forced = Repro_engine.Telemetry.counter "serve.forced_closes" in
  let body = "{\"kvco\":400000000,\"ivco\":0.003}" in
  let running = Atomic.make true in
  let answered = Array.init 4 (fun _ -> Atomic.make 0) in
  (* per client, the first reply that is neither a 200 nor a
     [Connect_failure] *)
  let unexpected = Array.make 4 None in
  let load i () =
    let client = S.Client.create ~port ~retries:0 () in
    let note why =
      if unexpected.(i) = None then unexpected.(i) <- Some why
    in
    while Atomic.get running do
      match S.Client.post client "/v1/models/default/query" ~body with
      | Ok { Http.status = 200; _ } -> Atomic.incr answered.(i)
      | Error (S.Client.Connect_failure _) -> ()
      | Ok { Http.status; _ } -> note (Printf.sprintf "status %d" status)
      | Error e -> note (S.Client.error_to_string e)
    done;
    S.Client.shutdown client
  in
  let threads = List.init 4 (fun i -> Thread.create (load i) ()) in
  let give_up = Unix.gettimeofday () +. 5. in
  while
    Array.exists (fun n -> Atomic.get n = 0) answered
    && Unix.gettimeofday () < give_up
  do
    Thread.delay 0.01
  done;
  let t0 = Unix.gettimeofday () in
  S.Server.stop ~drain_timeout:5. server;
  S.Server.wait server;
  let drain_s = Unix.gettimeofday () -. t0 in
  Atomic.set running false;
  List.iter Thread.join threads;
  if drain_s > 2.5 then Alcotest.failf "drain took %.2f s of its 5 s" drain_s;
  Alcotest.(check int) "no forced closes" forced
    (Repro_engine.Telemetry.counter "serve.forced_closes");
  Array.iteri
    (fun i n ->
      if Atomic.get n = 0 then Alcotest.failf "client %d got no answer" i;
      Option.iter (Alcotest.failf "client %d: %s" i) unexpected.(i))
    answered

(* ---- remote evaluation ---- *)

let design_point = (600e6, 4.5e-3, 10e-12, 0.6e-12, 6e3)

let eval cfg =
  let kvco, ivco, c1, c2, r1 = design_point in
  match H.Pll_problem.evaluate_point cfg ~kvco ~ivco ~c1 ~c2 ~r1 with
  | Ok row -> row
  | Error e -> Alcotest.failf "evaluate failed: %s" e

let test_remote_pll_bit_identical () =
  with_server @@ fun ~loaded _server client ->
  let local_cfg = H.Pll_problem.default_config ~model:loaded in
  let remote_cfg =
    {
      local_cfg with
      H.Pll_problem.query =
        Some (S.Remote.model_query ~client ~model:"default" ());
    }
  in
  let local = eval local_cfg and remote = eval remote_cfg in
  Alcotest.(check bool) "rows bit-identical" true (local = remote)

let test_remote_fallback () =
  (* a client pointed at a dead port: with a fallback table the query
     degrades to local evaluation; without one it raises *)
  let dead = S.Client.create ~port:1 ~timeout:0.2 ~retries:0 () in
  let with_fb =
    S.Remote.model_query ~fallback:Test_core.model ~client:dead
      ~model:"default" ()
  in
  let local = H.Perf_table.eval_points Test_core.model query_batch in
  Alcotest.(check bool) "fallback = local" true (with_fb query_batch = local);
  let without_fb = S.Remote.model_query ~client:dead ~model:"default" () in
  match without_fb query_batch with
  | _ -> Alcotest.fail "dead server without fallback should raise"
  | exception S.Remote.Remote_unavailable _ -> ()

let test_parse_endpoint () =
  let ok s = match S.Remote.parse_endpoint s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse_endpoint %S: %s" s e
  in
  Alcotest.(check (pair string int)) "host:port" ("localhost", 8190)
    (ok "localhost:8190");
  Alcotest.(check (pair string int)) "address" ("10.0.0.1", 9000)
    (ok "10.0.0.1:9000");
  List.iter
    (fun s ->
      match S.Remote.parse_endpoint s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "localhost"; "host:"; ":80"; "host:0"; "host:99999"; "host:80/";
      "host:80/vco_a" ]

(* Untrusted bytes, cut at arbitrary points: [feed] never raises, and
   once it has returned a [Protocol_error] the connection is broken and
   every later feed returns nothing.  The pieces mix request fragments
   with raw bytes so that the head, body and limit paths all run. *)
let conn_input_arb =
  let piece =
    QCheck.Gen.(
      frequency
        [
          (1, string_size ~gen:char (int_range 0 48));
          ( 4,
            oneofl
              [
                "GET /v1/healthz HTTP/1.1\r\n\r\n";
                "POST /v1/models/default/query HTTP/1.1\r\n";
                "Content-Length: ";
                "Transfer-Encoding: chunked\r\n";
                "Connection: close\r\n";
                "HTTP/1.0";
                "\r\n";
                "\r\n\r\n";
                "\n";
                ": ";
                " ";
              ] );
          (1, map string_of_int (int_range (-3) 20_000_000));
          (1, map (fun n -> String.make n 'a') (int_range 0 20_000));
        ])
  in
  QCheck.make
    ~print:(fun (data, cuts) ->
      Printf.sprintf "%S cut every %s" data
        (String.concat "," (List.map string_of_int cuts)))
    QCheck.Gen.(
      pair
        (map (String.concat "") (list_size (int_range 0 24) piece))
        (list_size (int_range 1 6) (int_range 1 300)))

let prop_conn_feed_total =
  QCheck.Test.make ~name:"conn feed never raises; broken after an error"
    ~count:300 conn_input_arb (fun (data, cuts) ->
      let conn = S.Conn.create () in
      let n = String.length data in
      let errored = ref false and ok = ref true in
      let feed chunk =
        (* at an offset into a larger buffer, as the reactor reads *)
        let buf = Bytes.of_string ("##" ^ chunk ^ "##") in
        let events = S.Conn.feed conn buf 2 (String.length chunk) in
        if !errored && events <> [] then ok := false;
        List.iteri
          (fun i -> function
            | S.Conn.Request _ -> ()
            | S.Conn.Protocol_error _ ->
              (* the last event of its feed, and the connection is inert *)
              if i <> List.length events - 1 || not (S.Conn.broken conn)
              then ok := false;
              errored := true)
          events
      in
      let rec go pos k =
        if pos < n then begin
          let len = min (List.nth cuts (k mod List.length cuts)) (n - pos) in
          feed (String.sub data pos len);
          go (pos + len) (k + 1)
        end
      in
      go 0 0;
      if !errored then feed "GET /v1/healthz HTTP/1.1\r\n\r\n";
      !ok)

(* A server that stops under an adapter costs one retry cycle and one
   warning: the later queries of the outage try it once each, without
   retries, and every answer is the local table's *)
let test_remote_outage_tries_once () =
  with_server @@ fun ~loaded server _ ->
  let client =
    S.Client.create ~port:(S.Server.port server) ~timeout:1.0 ~retries:2 ()
  in
  let query =
    S.Remote.model_query ~fallback:loaded ~client ~model:"default" ()
  in
  let local = H.Perf_table.eval_points loaded query_batch in
  let bits results =
    Array.map
      (fun (pe : H.Perf_table.point_eval) -> Marshal.to_string pe [])
      results
  in
  let counter = Repro_engine.Telemetry.counter in
  Alcotest.(check (array string)) "served = local" (bits local)
    (bits (query query_batch));
  S.Server.stop ~drain_timeout:2. server;
  S.Server.wait server;
  let retries0 = counter "serve.client_retries"
  and warnings0 = counter "serve.remote"
  and fallbacks0 = counter "serve.remote_fallbacks" in
  let first = query query_batch in
  let retries1 = counter "serve.client_retries" in
  let later = List.init 4 (fun _ -> query query_batch) in
  List.iter
    (fun got ->
      Alcotest.(check (array string)) "fallback = local" (bits local) (bits got))
    (first :: later);
  Alcotest.(check int) "the first query retries" 2 (retries1 - retries0);
  Alcotest.(check int) "the later ones do not" retries1
    (counter "serve.client_retries");
  Alcotest.(check int) "one warning" 1 (counter "serve.remote" - warnings0);
  Alcotest.(check int) "every query fell back" 5
    (counter "serve.remote_fallbacks" - fallbacks0);
  S.Client.shutdown client

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json strictness" `Quick test_json_strictness;
    Alcotest.test_case "json duplicate key" `Quick test_json_duplicate_key;
    QCheck_alcotest.to_alcotest prop_float_codec_lossless;
    Alcotest.test_case "http parse request" `Quick test_http_parse_request;
    Alcotest.test_case "http parse errors" `Quick test_http_parse_errors;
    Alcotest.test_case "http connection header" `Quick test_http_connection_header;
    Alcotest.test_case "conn split feeds" `Quick test_conn_split_feeds;
    Alcotest.test_case "conn pipelined" `Quick test_conn_pipelined;
    Alcotest.test_case "conn protocol error breaks" `Quick
      test_conn_protocol_error_breaks;
    Alcotest.test_case "conn response bytes" `Quick test_conn_response_bytes;
    Alcotest.test_case "serve query bit-identical" `Quick
      test_serve_query_bit_identical;
    Alcotest.test_case "serve endpoints" `Quick test_serve_endpoints;
    Alcotest.test_case "serve export" `Quick test_serve_export;
    Alcotest.test_case "unversioned paths answer 404" `Quick
      test_serve_unversioned_404;
    Alcotest.test_case "serve query wire-bytes golden" `Quick
      test_serve_query_wire_bytes_golden;
    Alcotest.test_case "serve healthz info" `Quick test_serve_healthz_info;
    Alcotest.test_case "serve metrics histograms" `Quick
      test_serve_metrics_histograms;
    Alcotest.test_case "serve graceful drain" `Quick test_serve_graceful_drain;
    Alcotest.test_case "serve pipelined keep-alive" `Quick
      test_serve_pipelined_keepalive;
    Alcotest.test_case "serve slowloris reaped" `Quick test_serve_slowloris;
    Alcotest.test_case "serve oversized requests" `Quick
      test_serve_oversized_requests;
    Alcotest.test_case "serve mid-request disconnect" `Quick
      test_serve_mid_request_disconnect;
    Alcotest.test_case "remote pll bit-identical" `Quick
      test_remote_pll_bit_identical;
    Alcotest.test_case "remote fallback" `Quick test_remote_fallback;
    Alcotest.test_case "parse endpoint" `Quick test_parse_endpoint;
    QCheck_alcotest.to_alcotest prop_conn_feed_total;
    Alcotest.test_case "serve drain under load" `Quick
      test_serve_drain_under_load;
    Alcotest.test_case "remote outage tries the server once" `Quick
      test_remote_outage_tries_once;
  ]
