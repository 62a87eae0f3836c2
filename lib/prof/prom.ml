(* Prometheus text exposition (version 0.0.4) over the live Telemetry
   and Histogram registries — the same snapshot surface the JSON
   /v1/metrics renders, so the two formats always agree. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let metric name = "hieropt_" ^ sanitize name

let num = Repro_util.Json.float_repr

let render_parts counters timers hists =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (k, v) ->
      let m = metric k in
      add "# TYPE %s counter\n%s %d\n" m m v)
    counters;
  List.iter
    (fun (k, v) ->
      let m = metric k ^ "_seconds" in
      add "# TYPE %s gauge\n%s %s\n" m m (num v))
    timers;
  List.iter
    (fun (k, (s : Repro_obs.Histogram.stats)) ->
      let m = metric k ^ "_seconds" in
      add "# TYPE %s summary\n" m;
      add "%s{quantile=\"0.5\"} %s\n" m (num s.p50);
      add "%s{quantile=\"0.9\"} %s\n" m (num s.p90);
      add "%s{quantile=\"0.99\"} %s\n" m (num s.p99);
      add "%s_sum %s\n" m (num s.sum);
      add "%s_count %d\n" m s.count)
    hists;
  Buffer.contents buf

let render () =
  let counters, timers =
    List.partition_map
      (fun (k, v) ->
        match v with
        | `Counter c -> Either.Left (k, c)
        | `Timer t -> Either.Right (k, t))
      (Repro_engine.Telemetry.snapshot ())
  in
  let hists =
    List.map
      (fun (k, h) -> (k, Repro_obs.Histogram.stats h))
      (Repro_obs.Histogram.all ())
  in
  render_parts counters timers hists
