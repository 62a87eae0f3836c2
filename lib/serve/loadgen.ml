module Histogram = Repro_obs.Histogram

type result = {
  connections : int;
  window : float;
  requests : int;
  errors : int;
  qps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let run ?(connections = 4) ?(duration = 2.0) ?(warmup = 0.25)
    ?(host = "127.0.0.1") ~port ~target ~body () =
  let connections = max 1 connections in
  let duration = max 0.05 duration in
  let warmup = max 0.0 warmup in
  (* sub-ms latencies live at the bottom of the default range; use the
     same fine-grained bucketing as the serve bench *)
  let hist = Histogram.create ~buckets:120 ~lo:1e-5 ~hi:10.0 () in
  let errors = Atomic.make 0 in
  let start = Unix.gettimeofday () in
  let warm_until = start +. warmup in
  let deadline = warm_until +. duration in
  let worker () =
    (* no transparent retries: a failed request must count as an error,
       not be silently replayed into the latency distribution *)
    let client = Client.create ~host ~port ~retries:0 () in
    let rec loop () =
      let t0 = Unix.gettimeofday () in
      if t0 < deadline then begin
        (match Client.post client target ~body with
        | Ok { Http.status = 200; _ } ->
          if t0 >= warm_until then
            Histogram.observe hist (Unix.gettimeofday () -. t0)
        | Ok _ | Error _ -> if t0 >= warm_until then Atomic.incr errors);
        loop ()
      end
    in
    loop ();
    Client.shutdown client
  in
  let threads = List.init connections (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let finished = Unix.gettimeofday () in
  let window = finished -. Float.max warm_until start in
  let s = Histogram.stats hist in
  {
    connections;
    window;
    requests = s.Histogram.count;
    errors = Atomic.get errors;
    qps = float_of_int s.Histogram.count /. Float.max window 1e-9;
    p50_ms = 1e3 *. s.Histogram.p50;
    p90_ms = 1e3 *. s.Histogram.p90;
    p99_ms = 1e3 *. s.Histogram.p99;
    max_ms = 1e3 *. s.Histogram.max;
  }

let pp out r =
  Printf.fprintf out
    "%d conn(s): %d req in %.2fs  %8.0f qps  p50 %6.2f ms  p99 %6.2f ms  \
     max %6.2f ms  errors %d"
    r.connections r.requests r.window r.qps r.p50_ms r.p99_ms r.max_ms
    r.errors
