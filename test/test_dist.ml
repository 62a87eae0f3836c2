(* repro_dist: wire-format roundtrips, worker routing, loopback
   coordinator/worker bit-identity, fault tolerance and the shared
   cache protocol. *)

module D = Repro_dist
module E = Repro_engine
module S = Repro_serve
module H = Hieropt
module P = Repro_moo.Problem
module Prng = Repro_util.Prng
module V = Repro_spice.Vco_measure
module T = Repro_circuit.Topologies

let check = Alcotest.(check bool)

let tiny_cfg () =
  H.Hierarchy.make_config ~scale:H.Hierarchy.tiny_scale
    ~spec:H.Hierarchy.tiny_spec ()

let vco_problem_of cfg =
  H.Vco_problem.problem ~measure_options:cfg.H.Hierarchy.measure
    ~spec:cfg.H.Hierarchy.spec ()

(* deterministic decision vectors; a mix of sensible and degenerate
   (infeasible, infinity-objective) sizings *)
let sample_points problem n =
  let prng = Prng.create 42 in
  Array.init n (fun _ -> P.random_point problem prng)

let same_evaluations msg (a : P.evaluation array) (b : P.evaluation array) =
  Alcotest.(check int) (msg ^ ": count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ea ->
      let eb = b.(i) in
      check
        (Printf.sprintf "%s: evaluation %d identical" msg i)
        true
        (ea.P.constraint_violation = eb.P.constraint_violation
        && ea.P.objectives = eb.P.objectives))
    a

(* ---- protocol ----------------------------------------------------- *)

let test_stream_codec () =
  let prng = Prng.create 7 in
  Array.iter
    (fun s ->
      let hex = D.Protocol.stream_to_hex s in
      match D.Protocol.stream_of_hex hex with
      | Error msg -> Alcotest.failf "decode failed: %s" msg
      | Ok s' ->
        for _ = 1 to 8 do
          check "restored stream continues identically" true
            (Prng.bits64 s = Prng.bits64 s')
        done)
    (Prng.split_n prng 5);
  check "garbage rejected" true
    (Result.is_error (D.Protocol.stream_of_hex "zz:1"));
  check "short words rejected" true
    (Result.is_error (D.Protocol.stream_of_hex "0:1:2:3:4:5"))

let json_roundtrip j =
  match S.Json.of_string (S.Json.to_string j) with
  | Ok j' -> j'
  | Error msg -> Alcotest.failf "json reparse failed: %s" msg

let test_eval_request_roundtrip () =
  let req =
    {
      D.Protocol.problem = "vco-sizing";
      salt = "abc123";
      model_hash = Some "deadbeef";
      points = [| [| 1.5e-6; 0.25 |]; [| infinity; neg_infinity; nan |] |];
    }
  in
  match
    D.Protocol.eval_request_of_json
      (json_roundtrip (D.Protocol.eval_request_to_json req))
  with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok r ->
    check "fields survive" true
      (r.D.Protocol.problem = req.D.Protocol.problem
      && r.D.Protocol.salt = req.D.Protocol.salt
      && r.D.Protocol.model_hash = req.D.Protocol.model_hash);
    check "finite points bit-identical" true
      (r.D.Protocol.points.(0) = req.D.Protocol.points.(0));
    check "specials survive" true
      (r.D.Protocol.points.(1).(0) = infinity
      && r.D.Protocol.points.(1).(1) = neg_infinity
      && Float.is_nan r.D.Protocol.points.(1).(2))

let test_mc_request_roundtrip () =
  let prng = Prng.create 11 in
  let req =
    {
      D.Protocol.mc_salt = "s";
      params = T.vco_vector_of_params T.vco_default;
      streams = Prng.split_n prng 3;
    }
  in
  let expect = Array.map (fun s -> Prng.bits64 (Prng.copy s)) req.D.Protocol.streams in
  match
    D.Protocol.mc_request_of_json
      (json_roundtrip (D.Protocol.mc_request_to_json req))
  with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok r ->
    check "params bit-identical" true
      (r.D.Protocol.params = req.D.Protocol.params);
    Array.iteri
      (fun i s ->
        check "stream restored" true (Prng.bits64 s = expect.(i)))
      r.D.Protocol.streams

let test_outcome_rows () =
  let perf =
    { V.kvco = 2.3e8; ivco = 5.4e-3; jvco = 1.2e-12; fmin = 1.1e8; fmax = 5.0e8 }
  in
  (match
     D.Protocol.outcome_of_perf_row (D.Protocol.perf_row_of_outcome (Ok perf))
   with
  | Ok p -> check "success roundtrip" true (p = perf)
  | Error _ -> Alcotest.fail "expected Ok");
  (match
     D.Protocol.outcome_of_perf_row
       (D.Protocol.perf_row_of_outcome (Error "boom"))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error");
  check "malformed raises" true
    (try
       ignore (D.Protocol.outcome_of_perf_row [| 2.0; 3.0 |]);
       false
     with Failure _ -> true)

(* ---- worker routing (handler called directly, no sockets) --------- *)

(* a request for /v1/<path>, the only routes a worker answers *)
let request ?(meth = "GET") ?(body = "") path =
  {
    S.Http.meth;
    target = "/v1/" ^ String.concat "/" path;
    path = "v1" :: path;
    version = "HTTP/1.1";
    headers = [];
    body;
  }

let body_json body =
  match S.Json.of_string body with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not JSON: %s" msg

let test_worker_routing () =
  let cfg = tiny_cfg () in
  let w = D.Worker.create ~version:"test" ~config:cfg () in
  let status, _, body = D.Worker.handler w (request [ "healthz" ]) in
  Alcotest.(check int) "healthz ok" 200 status;
  let j = body_json body in
  check "role" true (S.Json.member "role" j = Some (S.Json.Str "worker"));
  check "salt advertised" true
    (S.Json.member "salt" j = Some (S.Json.Str (D.Worker.salt w)));
  check "problems advertised" true
    (D.Worker.problems w = [ "vco-sizing" ]);
  (* wrong salt -> 409, not an evaluation *)
  let bad =
    S.Json.to_string
      (D.Protocol.eval_request_to_json
         {
           D.Protocol.problem = "vco-sizing";
           salt = "not-the-salt";
           model_hash = None;
           points = [| [| 0.0 |] |];
         })
  in
  let status, _, _ =
    D.Worker.handler w (request ~meth:"POST" ~body:bad [ "eval" ])
  in
  Alcotest.(check int) "salt mismatch conflicts" 409 status;
  (* unknown problem -> 404; pll-system without a model too *)
  List.iter
    (fun name ->
      let body =
        S.Json.to_string
          (D.Protocol.eval_request_to_json
             {
               D.Protocol.problem = name;
               salt = D.Worker.salt w;
               model_hash = None;
               points = [| [| 0.0 |] |];
             })
      in
      let status, _, _ =
        D.Worker.handler w (request ~meth:"POST" ~body [ "eval" ])
      in
      Alcotest.(check int) (name ^ " rejected") 404 status)
    [ "nonsense"; "pll-system" ];
  (* malformed body -> 400 *)
  let status, _, _ =
    D.Worker.handler w (request ~meth:"POST" ~body:"{" [ "eval" ])
  in
  Alcotest.(check int) "malformed body" 400 status;
  (* wrong verbs *)
  let status, _, _ = D.Worker.handler w (request ~meth:"POST" [ "healthz" ]) in
  Alcotest.(check int) "POST /v1/healthz" 405 status;
  let status, _, _ = D.Worker.handler w (request [ "eval" ]) in
  Alcotest.(check int) "GET /v1/eval" 405 status;
  let status, _, _ = D.Worker.handler w (request [ "nope" ]) in
  Alcotest.(check int) "unknown route" 404 status;
  let status, _, _ =
    D.Worker.handler w
      { (request [ "healthz" ]) with target = "/healthz"; path = [ "healthz" ] }
  in
  Alcotest.(check int) "unversioned path" 404 status

let test_worker_cache_protocol () =
  let cfg = tiny_cfg () in
  let w = D.Worker.create ~config:cfg () in
  let key = E.Cache.key ~kind:"eval:test:s" [| 1.0; 2.5e-7 |] in
  let id = E.Cache.key_id key in
  let line = E.Cache.entry_to_line key [| 0.0; 3.25 |] in
  (* miss first *)
  let status, _, _ = D.Worker.handler w (request [ "cache"; id ]) in
  Alcotest.(check int) "miss is 404" 404 status;
  (* PUT then GET roundtrips the exact line *)
  let status, _, _ =
    D.Worker.handler w
      (request ~meth:"PUT" ~body:line [ "cache"; id ])
  in
  Alcotest.(check int) "put accepted" 204 status;
  let status, _, got =
    D.Worker.handler w (request [ "cache"; id ])
  in
  Alcotest.(check int) "hit" 200 status;
  Alcotest.(check string) "line roundtrips" line got;
  (* id / line mismatch and garbage are 400s *)
  let status, _, _ =
    D.Worker.handler w
      (request ~meth:"PUT" ~body:line [ "cache"; "ffff" ])
  in
  Alcotest.(check int) "wrong id rejected" 400 status;
  let status, _, _ =
    D.Worker.handler w
      (request ~meth:"PUT" ~body:"not a line" [ "cache"; id ])
  in
  Alcotest.(check int) "garbage rejected" 400 status;
  (* bulk warm: n lines, malformed ones skipped *)
  let key2 = E.Cache.key ~kind:"eval:test:s" [| 9.0 |] in
  let lines =
    String.concat "\n"
      [ line; E.Cache.entry_to_line key2 [| 1.0 |]; "garbage line" ]
  in
  let status, _, body =
    D.Worker.handler w (request ~meth:"PUT" ~body:lines [ "cache" ])
  in
  Alcotest.(check int) "bulk accepted" 200 status;
  check "bulk stored 2" true
    (S.Json.member "stored" (body_json body) = Some (S.Json.Num 2.0));
  check "entries present" true (E.Cache.length (D.Worker.cache w) = 2)

(* ---- loopback farm ------------------------------------------------ *)

let with_worker ?model cfg f =
  let w = D.Worker.create ?model ~config:cfg () in
  let server = D.Worker.serve ~port:0 w in
  Fun.protect
    ~finally:(fun () ->
      S.Server.stop ~drain_timeout:2. server;
      S.Server.wait server)
    (fun () -> f w (Printf.sprintf "127.0.0.1:%d" (S.Server.port server)))

let coordinator ?model_hash ~salt endpoints =
  match
    D.Coordinator.create ?model_hash ~timeout:60. ~retries:1 ~salt
      ~endpoints ()
  with
  | Ok c -> c
  | Error msg -> Alcotest.failf "coordinator: %s" msg

let test_loopback_eval_identity () =
  let cfg = tiny_cfg () in
  let salt = H.Hierarchy.config_salt cfg in
  let problem = vco_problem_of cfg in
  let points = sample_points problem 3 in
  let expect = P.serial_evaluator problem points in
  with_worker cfg @@ fun w endpoint ->
  let c = coordinator ~salt [ endpoint ] in
  Alcotest.(check int) "worker live" 1 (D.Coordinator.live_workers c);
  let remote = D.Coordinator.eval_bulk c ~salt problem points in
  same_evaluations "remote vs serial" expect remote;
  check "worker actually evaluated" true
    (E.Cache.length (D.Worker.cache w) >= 3);
  (* the remote_evaluator hook composes with a coordinator-side cache *)
  let cache = E.Cache.create () in
  let hook = D.Coordinator.remote c in
  let via_hook =
    hook.H.Hierarchy.remote_evaluator ~salt ~cache problem points
  in
  same_evaluations "hook vs serial" expect via_hook;
  let again = hook.H.Hierarchy.remote_evaluator ~salt ~cache problem points in
  same_evaluations "cached re-eval" expect again;
  check "second round served from coordinator cache" true
    (E.Cache.hits cache >= 3)

let test_loopback_mc_identity () =
  let cfg = tiny_cfg () in
  let salt = H.Hierarchy.config_salt cfg in
  let options =
    {
      H.Variation_model.samples = 4;
      process = cfg.H.Hierarchy.process;
      measure = cfg.H.Hierarchy.measure;
    }
  in
  let design =
    match V.characterise T.vco_default with
    | Ok perf -> { H.Vco_problem.params = T.vco_default; perf }
    | Error f -> Alcotest.failf "characterise: %s" (V.failure_to_string f)
  in
  let local_entry =
    H.Variation_model.analyse_design ~options ~prng:(Prng.create 5) design
  in
  with_worker cfg @@ fun _w endpoint ->
  let c = coordinator ~salt [ endpoint ] in
  let hook = D.Coordinator.remote c in
  let remote_entry =
    H.Variation_model.analyse_design ~options
      ~mc_bulk:(hook.H.Hierarchy.remote_mc ~salt)
      ~prng:(Prng.create 5) design
  in
  check "variation entry identical" true (local_entry = remote_entry)

let test_dead_endpoint_fallback () =
  (* nothing listens on port 9: the coordinator warns, marks the worker
     dead and every batch falls back to the caller's local evaluator *)
  let c =
    match
      D.Coordinator.create ~timeout:1. ~retries:0 ~salt:"s"
        ~endpoints:[ "127.0.0.1:9" ] ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "unreachable should not fail create: %s" msg
  in
  Alcotest.(check int) "no live workers" 0 (D.Coordinator.live_workers c);
  let perf =
    { V.kvco = 1.0; ivco = 2.0; jvco = 3.0; fmin = 4.0; fmax = 5.0 }
  in
  let calls = ref 0 in
  let local streams =
    incr calls;
    Array.map (fun _ -> Ok perf) streams
  in
  let streams = Prng.split_n (Prng.create 3) 6 in
  let out =
    D.Coordinator.mc_bulk c ~salt:"s" ~params:[| 0.0 |] ~local streams
  in
  Alcotest.(check int) "local evaluator used once" 1 !calls;
  Alcotest.(check int) "all outcomes present" 6 (Array.length out);
  Array.iter (fun o -> check "outcome is the local one" true (o = Ok perf)) out

let test_salt_mismatch_fails_create () =
  let cfg = tiny_cfg () in
  with_worker cfg @@ fun _w endpoint ->
  match
    D.Coordinator.create ~salt:"different-salt" ~endpoints:[ endpoint ] ()
  with
  | Error msg -> check "creation refused" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "mismatched salt must fail creation"

let test_worker_loss_falls_back () =
  let cfg = tiny_cfg () in
  let salt = H.Hierarchy.config_salt cfg in
  let w = D.Worker.create ~config:cfg () in
  let server = D.Worker.serve ~port:0 w in
  let endpoint = Printf.sprintf "127.0.0.1:%d" (S.Server.port server) in
  let c =
    match
      D.Coordinator.create ~timeout:60. ~retries:0 ~salt
        ~endpoints:[ endpoint ] ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "coordinator: %s" msg
  in
  let perf =
    { V.kvco = 6.0; ivco = 7.0; jvco = 8.0; fmin = 9.0; fmax = 10.0 }
  in
  let local streams = Array.map (fun _ -> Ok perf) streams in
  let params = T.vco_vector_of_params T.vco_default in
  (* batch 1: served remotely (the local stub would return [perf]) *)
  let streams = Prng.split_n (Prng.create 4) 2 in
  let out = D.Coordinator.mc_bulk c ~salt ~params ~local streams in
  check "batch 1 computed remotely" true
    (Array.for_all (fun o -> o <> Ok perf) out);
  (* the worker dies; the next batch must still complete, locally *)
  S.Server.stop ~drain_timeout:2. server;
  S.Server.wait server;
  let out2 = D.Coordinator.mc_bulk c ~salt ~params ~local streams in
  check "batch 2 fell back to local" true
    (Array.for_all (fun o -> o = Ok perf) out2);
  Alcotest.(check int) "worker marked dead" 0 (D.Coordinator.live_workers c)

let test_cache_warming_spreads () =
  let cfg = tiny_cfg () in
  let salt = H.Hierarchy.config_salt cfg in
  let problem = vco_problem_of cfg in
  let points = sample_points problem 2 in
  with_worker cfg @@ fun w1 ep1 ->
  with_worker cfg @@ fun w2 ep2 ->
  let c = coordinator ~salt [ ep1; ep2 ] in
  Alcotest.(check int) "both live" 2 (D.Coordinator.live_workers c);
  let first = D.Coordinator.eval_bulk c ~salt problem points in
  (* every fresh result is pushed to every live worker, so both caches
     hold the full batch regardless of who computed what *)
  Alcotest.(check int) "w1 warmed" 2 (E.Cache.length (D.Worker.cache w1));
  Alcotest.(check int) "w2 warmed" 2 (E.Cache.length (D.Worker.cache w2));
  let again = D.Coordinator.eval_bulk c ~salt problem points in
  same_evaluations "warm re-eval identical" first again;
  check "a worker served from cache" true
    (E.Cache.hits (D.Worker.cache w1) + E.Cache.hits (D.Worker.cache w2) >= 2)

let test_system_level_remote_identity () =
  let model = Test_core.model in
  let cfg = tiny_cfg () in
  let salt = H.Hierarchy.config_salt cfg in
  let local = H.Hierarchy.run_system_level cfg ~model in
  with_worker ~model cfg @@ fun w endpoint ->
  check "worker advertises pll" true
    (List.mem "pll-system" (D.Worker.problems w));
  let c =
    coordinator ~model_hash:(D.Protocol.model_fingerprint model) ~salt
      [ endpoint ]
  in
  let remote =
    H.Hierarchy.run_system_level ~remote:(D.Coordinator.remote c) cfg ~model
  in
  check "table 2 rows identical" true
    (local.H.Hierarchy.rows = remote.H.Hierarchy.rows);
  check "selection identical" true
    (local.H.Hierarchy.selected = remote.H.Hierarchy.selected);
  check "pll shards went remote" true
    (E.Cache.length (D.Worker.cache w) > 0)

(* ---- concurrent cache access (the protocol's server side) --------- *)

let test_cache_concurrent () =
  (* two threads hammer the same key space while FIFO eviction churns:
     every successful find must return the exact stored value (no torn
     reads) and the counters must account for every find *)
  let cache = E.Cache.create ~capacity:32 () in
  let value_of i = [| float_of_int i; float_of_int (i * i) |] in
  let torn = Atomic.make 0 in
  let finds = Atomic.make 0 in
  let worker () =
    for round = 0 to 2 do
      ignore round;
      for i = 0 to 199 do
        let key = E.Cache.key ~kind:"eval:conc" [| float_of_int i |] in
        E.Cache.store cache key (value_of i);
        match E.Cache.find cache key with
        | None -> Atomic.incr finds
        | Some v ->
          Atomic.incr finds;
          if v <> value_of i then Atomic.incr torn
      done
    done
  in
  let t1 = Thread.create worker () in
  let t2 = Thread.create worker () in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check int) "every find counted" (Atomic.get finds)
    (E.Cache.hits cache + E.Cache.misses cache);
  check "eviction happened" true (E.Cache.evictions cache > 0);
  check "capacity respected" true (E.Cache.length cache <= 32)

let suite =
  [
    Alcotest.test_case "stream codec" `Quick test_stream_codec;
    Alcotest.test_case "eval request roundtrip" `Quick
      test_eval_request_roundtrip;
    Alcotest.test_case "mc request roundtrip" `Quick test_mc_request_roundtrip;
    Alcotest.test_case "outcome rows" `Quick test_outcome_rows;
    Alcotest.test_case "worker routing" `Quick test_worker_routing;
    Alcotest.test_case "worker cache protocol" `Quick
      test_worker_cache_protocol;
    Alcotest.test_case "dead endpoint fallback" `Quick
      test_dead_endpoint_fallback;
    Alcotest.test_case "cache concurrent access" `Quick test_cache_concurrent;
    Alcotest.test_case "salt mismatch fails create" `Quick
      test_salt_mismatch_fails_create;
    Alcotest.test_case "loopback eval bit-identical" `Slow
      test_loopback_eval_identity;
    Alcotest.test_case "loopback mc bit-identical" `Slow
      test_loopback_mc_identity;
    Alcotest.test_case "worker loss falls back" `Slow
      test_worker_loss_falls_back;
    Alcotest.test_case "cache warming spreads" `Slow
      test_cache_warming_spreads;
    Alcotest.test_case "system level remote identity" `Slow
      test_system_level_remote_identity;
  ]
