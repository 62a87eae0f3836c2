module Process = Repro_circuit.Process
module Prng = Repro_util.Prng
module Stats = Repro_util.Stats

type 'a trial = Repro_circuit.Netlist.t -> ('a, string) result

type 'a run_result = {
  samples : 'a array;
  failures : int;
  seeds_used : int;
}

(* Above this failure fraction a run is considered degenerate: the
   surviving samples no longer estimate the spread of the population the
   caller asked about, so we shout instead of silently reporting a
   too-small [failures] field. *)
let default_warn_threshold = 0.5

let run ?(spec = Process.default) ?pool ?(warn_threshold = default_warn_threshold)
    ~n ~prng net trial =
  if n <= 0 then invalid_arg "Monte_carlo.run: n must be positive";
  (* per-trial streams are split before dispatch, and outcomes are
     collected in trial order, so results are identical to the serial
     loop for any pool size *)
  let module E = Repro_engine in
  let pool = match pool with Some p -> p | None -> E.Pool.get_default () in
  (* per-domain batches: a trial costs hundreds of milliseconds, so
     fine-grained chunks buy no load balance but defeat the per-domain
     workspace reuse that keeps sparse factors warm across samples *)
  let chunk = max 1 (n / E.Pool.size pool) in
  let sample_hist = Repro_obs.Histogram.get "mc.sample.duration" in
  let timed_trial stream =
    Repro_obs.Histogram.time sample_hist (fun () ->
        trial (Process.sample spec stream net))
  in
  let outcomes =
    Repro_obs.Trace.span "mc.batch" ~args:[ ("samples", string_of_int n) ]
    @@ fun () ->
    E.Telemetry.time "mc.wall" @@ fun () ->
    E.Parmap.map_seeded ~pool ~chunk ~prng
      (fun stream () -> timed_trial stream)
      (Array.make n ())
  in
  let ok = ref [] and failures = ref 0 in
  for i = n - 1 downto 0 do
    match outcomes.(i) with
    | Ok x -> ok := x :: !ok
    | Error _ -> incr failures
  done;
  E.Telemetry.incr "mc.trials" ~by:n;
  E.Telemetry.incr "mc.failures" ~by:!failures;
  let rate = float_of_int !failures /. float_of_int n in
  if rate > warn_threshold then
    E.Telemetry.warn ~key:"mc.degenerate_runs"
      "Monte-Carlo run lost %d/%d trials (%.0f%% > %.0f%% threshold) — the \
       surviving spread statistics describe only the non-degenerate corner"
      !failures n (100.0 *. rate)
      (100.0 *. warn_threshold);
  { samples = Array.of_list !ok; failures = !failures; seeds_used = n }

type spread = {
  nominal : float;
  mc_mean : float;
  mc_std : float;
  rel_spread : float;
  n_samples : int;
}

let spread_of_samples ~nominal samples =
  let mc_mean = Stats.mean samples in
  let mc_std = Stats.stddev samples in
  {
    nominal;
    mc_mean;
    mc_std;
    rel_spread = (if mc_mean = 0.0 then 0.0 else mc_std /. Float.abs mc_mean);
    n_samples = Array.length samples;
  }

let pp_spread ppf s =
  Format.fprintf ppf "nominal=%g mc=%g±%g (∆=%.2f%%, n=%d)" s.nominal s.mc_mean
    s.mc_std (100.0 *. s.rel_spread) s.n_samples
