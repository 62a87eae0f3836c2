module E = Repro_engine
module Json = Repro_serve.Json
module Http = Repro_serve.Http
module Client = Repro_serve.Client
module P = Repro_moo.Problem
module H = Hieropt.Hierarchy

type worker = {
  endpoint : string;
  client : Client.t;
  mutable alive : bool;
  mutable advertised : string list;
  mutable worker_model_hash : string option;
}

type t = {
  workers : worker list;
  salt : string;
  model_hash : string option;
  mutex : Mutex.t;  (* guards [alive] flips and reads *)
}

let endpoints t = List.map (fun w -> w.endpoint) t.workers
let live_workers t =
  Mutex.lock t.mutex;
  let n = List.length (List.filter (fun w -> w.alive) t.workers) in
  Mutex.unlock t.mutex;
  n

(* ---- creation / probing ------------------------------------------- *)

let probe ~salt w =
  match Client.get_json w.client "/v1/healthz" with
  | Error e ->
    (* not fatal: a worker that is still starting (or already gone) is
       just marked dead; the run proceeds without it *)
    w.alive <- false;
    E.Telemetry.warn ~key:"dist.unreachable_workers"
      "eval worker %s unreachable: %s" w.endpoint (Client.error_to_string e);
    Ok ()
  | Ok j -> (
    match (Json.member "role" j, Json.member "salt" j) with
    | Some (Json.Str "worker"), Some (Json.Str wsalt) when wsalt = salt ->
      w.alive <- true;
      (match Json.member "problems" j with
      | Some (Json.Arr items) ->
        w.advertised <-
          List.filter_map
            (function Json.Str s -> Some s | _ -> None)
            items
      | _ -> ());
      (match Json.member "model_hash" j with
      | Some (Json.Str h) -> w.worker_model_hash <- Some h
      | _ -> ());
      Ok ()
    | Some (Json.Str "worker"), Some (Json.Str wsalt) ->
      (* a mismatched salt is a config error, not a flaky worker: the
         whole run would silently fall back to local evaluation, so
         fail loudly instead *)
      Error
        (Printf.sprintf
           "worker %s serves config salt %s, this run needs %s (start the \
            worker with the same --scale/--seed-independent options)"
           w.endpoint wsalt salt)
    | _ ->
      Error
        (Printf.sprintf "%s is not an eval worker (is it a model server?)"
           w.endpoint))

let create ?(timeout = 120.) ?(retries = 2) ?model_hash ~salt ~endpoints () =
  match
    List.map
      (fun spec ->
        match Repro_serve.Remote.parse_endpoint spec with
        | Error msg -> failwith (Printf.sprintf "--workers %s: %s" spec msg)
        | Ok (host, port, _) ->
          {
            endpoint = spec;
            client = Client.create ~host ~port ~timeout ~retries ();
            alive = false;
            advertised = [];
            worker_model_hash = None;
          })
      endpoints
  with
  | exception Failure msg -> Error msg
  | workers -> (
    let t = { workers; salt; model_hash; mutex = Mutex.create () } in
    match
      List.find_map
        (fun w -> match probe ~salt w with Error e -> Some e | Ok () -> None)
        workers
    with
    | Some msg -> Error msg
    | None -> Ok t)

(* ---- eligibility -------------------------------------------------- *)

(* the PLL problem evaluates against the run's table model, so a shard
   is only distributable when both ends hold the same model (the flow
   builds its model mid-run in memory; there the coordinator has no
   expected hash and system-level evaluation honestly stays local) *)
let requires_model name = name = "pll-system"

let eligible t ~name =
  Mutex.lock t.mutex;
  let ws =
    List.filter
      (fun w ->
        w.alive
        && (name = "" || List.mem name w.advertised)
        && ((not (requires_model name))
           || (t.model_hash <> None && w.worker_model_hash = t.model_hash)))
      t.workers
  in
  Mutex.unlock t.mutex;
  ws

let mark_dead t w =
  Mutex.lock t.mutex;
  if w.alive then begin
    w.alive <- false;
    E.Telemetry.incr "dist.worker_deaths";
    E.Telemetry.warn ~key:"dist.worker_deaths_detail"
      "eval worker %s failed mid-run; reassigning its shard" w.endpoint
  end;
  Mutex.unlock t.mutex

(* ---- chunked work-stealing dispatch ------------------------------- *)

(* Split [n] items into chunks a few times smaller than an even share,
   drain them from a shared queue with one thread per live worker, and
   requeue a failed worker's chunk for the survivors to steal.  Chunks
   whose workers all died (or that never had a worker) are returned for
   local evaluation, so the dispatch always completes.  Results are
   written by item index, so the outcome is independent of who computed
   what — the determinism contract. *)
(* time-in-queue for coordinator work items, from (re)enqueue to a
   worker thread claiming the chunk — always-on, like the pool's *)
let queue_wait = Repro_obs.Histogram.get "dist.queue_wait"

let dispatch t ~workers ~n ~remote_chunk =
  let leftovers q =
    let rec drain acc =
      match Queue.take_opt q with
      | Some (lo, len, _) -> drain ((lo, len) :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  if n = 0 then []
  else
    match workers with
    | [] -> [ (0, n) ]
    | ws ->
      Repro_obs.Trace.span "dist.dispatch"
        ~args:
          [
            ("items", string_of_int n);
            ("workers", string_of_int (List.length ws));
          ]
      @@ fun () ->
      let chunk = max 1 (n / (List.length ws * 4)) in
      let queue = Queue.create () in
      let lo = ref 0 in
      let now () = Unix.gettimeofday () in
      while !lo < n do
        Queue.add (!lo, min chunk (n - !lo), now ()) queue;
        lo := !lo + chunk
      done;
      let qmutex = Mutex.create () in
      let take () =
        Mutex.lock qmutex;
        let c = Queue.take_opt queue in
        Mutex.unlock qmutex;
        match c with
        | Some (lo, len, enqueued) ->
          Repro_obs.Histogram.observe queue_wait (now () -. enqueued);
          Some (lo, len)
        | None -> None
      in
      let requeue (lo, len) =
        Mutex.lock qmutex;
        Queue.add (lo, len, now ()) queue;
        Mutex.unlock qmutex
      in
      let serve_worker w =
        let rec loop () =
          match take () with
          | None -> ()
          | Some ((lo, len) as c) ->
            if remote_chunk w lo len then loop ()
            else begin
              (* the worker is gone (or rejected the shard): requeue
                 the chunk for the surviving threads and stop using it *)
              mark_dead t w;
              E.Telemetry.incr "dist.reassigned_chunks";
              requeue c
            end
        in
        loop ()
      in
      let threads = List.map (fun w -> Thread.create serve_worker w) ws in
      List.iter Thread.join threads;
      leftovers queue

(* While tracing, each remote call carries the trace id, the innermost
   open span (the dispatch/batch span — dispatcher sys-threads share
   the main domain's span stack, which is stable while they run) and a
   wall-clock send stamp.  The worker's echo closes the envelope: one
   [dist.clock] instant per round trip records the NTP-style offset
   estimate [trace merge] uses to place that worker on this timeline. *)
let mint_ctx () =
  if not (Repro_obs.Trace.enabled ()) then None
  else
    Some
      {
        Protocol.trace = Repro_obs.Trace.id ();
        parent =
          Option.value ~default:(-1) (Repro_obs.Trace.current_span ());
        t_sent = Unix.gettimeofday ();
      }

let record_clock w (ctx : Protocol.trace_ctx) rj =
  let t_reply_recv = Unix.gettimeofday () in
  match Protocol.trace_echo_of_json rj with
  | None -> ()
  | Some e ->
    let delta =
      Repro_prof.Merge.offset ~t_send:ctx.Protocol.t_sent
        ~t_recv:e.Protocol.t_recv ~t_reply_sent:e.Protocol.t_replied
        ~t_reply_recv
    in
    Repro_obs.Trace.instant "dist.clock"
      ~args:
        [
          ("endpoint", w.endpoint);
          ("delta_s", Printf.sprintf "%.9f" delta);
          ("span", string_of_int e.Protocol.span);
        ]

let post_json w target j =
  let ctx = mint_ctx () in
  match
    Client.post w.client target
      ~body:(Json.to_string (Protocol.with_trace_ctx ctx j))
  with
  | Ok { Http.status = 200; resp_body; _ } -> (
    match Json.of_string resp_body with
    | Ok rj ->
      Option.iter (fun c -> record_clock w c rj) ctx;
      Some rj
    | Error _ -> None)
  | Ok _ | Error _ -> None

(* ---- GA population evaluation ------------------------------------- *)

(* warm every live worker's cache with the freshly computed entries so
   the next generation's shards hit warm caches wherever they land;
   best-effort and synchronous (the lines are small, and a failed warm
   only costs future cache hits, never correctness) *)
let warm_caches t ~kind xs evals =
  if Array.length xs > 0 then begin
    let lines =
      Array.to_list
        (Array.mapi
           (fun i x ->
             E.Cache.entry_to_line (E.Cache.key ~kind x) (P.pack evals.(i)))
           xs)
    in
    let body = String.concat "\n" lines ^ "\n" in
    List.iter
      (fun w ->
        match Client.put w.client "/v1/cache" ~body with
        | Ok _ | Error _ -> ())
      (eligible t ~name:"")
  end

let eval_bulk t ~salt (problem : P.t) xs =
  let n = Array.length xs in
  let out = Array.make n None in
  let model_hash =
    if requires_model problem.P.name then t.model_hash else None
  in
  let remote_chunk w lo len =
    let req =
      {
        Protocol.problem = problem.P.name;
        salt;
        model_hash;
        points = Array.sub xs lo len;
      }
    in
    match post_json w "/v1/eval" (Protocol.eval_request_to_json req) with
    | None -> false
    | Some j -> (
      match Protocol.results_of_json j with
      | Ok rows
        when Array.length rows = len
             && Array.for_all
                  (fun r -> Array.length r = 1 + P.n_objectives problem)
                  rows ->
        Array.iteri (fun i row -> out.(lo + i) <- Some (P.unpack row)) rows;
        true
      | Ok _ | Error _ -> false)
  in
  let workers = eligible t ~name:problem.P.name in
  let leftover = dispatch t ~workers ~n ~remote_chunk in
  let local_n =
    List.fold_left (fun acc (_, len) -> acc + len) 0 leftover
  in
  E.Telemetry.incr "dist.remote_points" ~by:(n - local_n);
  if local_n > 0 then begin
    E.Telemetry.incr "dist.local_points" ~by:local_n;
    List.iter
      (fun (lo, len) ->
        let sub = Array.sub xs lo len in
        let evals = E.Parmap.map problem.P.evaluate sub in
        Array.iteri (fun i e -> out.(lo + i) <- Some e) evals)
      leftover
  end;
  let evals =
    Array.map (function Some e -> e | None -> assert false) out
  in
  warm_caches t ~kind:(P.cache_kind ~salt problem) xs evals;
  evals

(* ---- Monte-Carlo sample batches ----------------------------------- *)

let mc_bulk t ~salt ~params ~local streams =
  let n = Array.length streams in
  let out = Array.make n None in
  let remote_chunk w lo len =
    let req =
      { Protocol.mc_salt = salt; params; streams = Array.sub streams lo len }
    in
    match post_json w "/v1/eval" (Protocol.mc_request_to_json req) with
    | None -> false
    | Some j -> (
      match Protocol.results_of_json j with
      | Ok rows when Array.length rows = len -> (
        match Array.map Protocol.outcome_of_perf_row rows with
        | outcomes ->
          Array.iteri (fun i o -> out.(lo + i) <- Some o) outcomes;
          true
        | exception Failure _ -> false)
      | Ok _ | Error _ -> false)
  in
  (* every worker evaluates MC shards with its own config (guarded by
     the salt), so eligibility is just liveness *)
  let workers = eligible t ~name:"" in
  let leftover = dispatch t ~workers ~n ~remote_chunk in
  let local_n = List.fold_left (fun acc (_, len) -> acc + len) 0 leftover in
  E.Telemetry.incr "dist.remote_mc_trials" ~by:(n - local_n);
  if local_n > 0 then begin
    E.Telemetry.incr "dist.local_mc_trials" ~by:local_n;
    List.iter
      (fun (lo, len) ->
        let outcomes = local (Array.sub streams lo len) in
        Array.iteri (fun i o -> out.(lo + i) <- Some o) outcomes)
      leftover
  end;
  Array.map (function Some o -> o | None -> assert false) out

(* ---- the Hierarchy hook ------------------------------------------- *)

let remote t =
  {
    H.topology = endpoints t;
    remote_evaluator =
      (fun ~salt ~cache ->
        fun problem xs ->
         P.cached_evaluator ~cache ~salt
           ~bulk:(fun problem xs -> eval_bulk t ~salt problem xs)
           () problem xs);
    remote_mc =
      (fun ~salt ->
        fun ~params ~local streams -> mc_bulk t ~salt ~params ~local streams);
  }
