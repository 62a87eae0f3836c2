module B = Repro_behave
module Prng = Repro_util.Prng

type outcome = {
  pass : bool;
  lock_time : float option;
  current : float;
  detail : string;
}

let outcome (spec : Spec.t) = function
  | Error e -> { pass = false; lock_time = None; current = 0.0; detail = e }
  | Ok perf ->
    let lock_ok = perf.B.Pll.lock_time <= spec.Spec.lock_time_max in
    let curr_ok = perf.B.Pll.current <= spec.Spec.current_max in
    {
      pass = lock_ok && curr_ok;
      lock_time = Some perf.B.Pll.lock_time;
      current = perf.B.Pll.current;
      detail =
        (if lock_ok && curr_ok then "pass"
         else if not lock_ok then "lock time over budget"
         else "current over budget");
    }

let check_sample cfg ~kvco ~ivco ~c1 ~c2 ~r1 =
  let pll_cfg, _, _, _ =
    Pll_problem.variant_config cfg ~kvco ~ivco ~c1 ~c2 ~r1
  in
  outcome cfg.Pll_problem.spec (B.Pll.evaluate pll_cfg)

let count_passes outcomes =
  Array.fold_left (fun acc pass -> if pass then acc + 1 else acc) 0 outcomes

let behavioural ?(n = 500) ?pool ~prng cfg
    (row : Pll_problem.table2_row) =
  let module E = Repro_engine in
  let m = cfg.Pll_problem.model in
  let dk = Perf_table.kvco_delta m row.Pll_problem.kv in
  let di = Perf_table.ivco_delta m row.Pll_problem.iv in
  (* the (Kvco, Ivco) perturbations are drawn serially, in the same
     order as the historical loop, and the model is queried once for all
     of them; only the pure PLL re-evaluations run on the pool, in one
     lockstep chunk per worker, so the estimate is worker-count
     independent *)
  let draws = Array.make n (0.0, 0.0) in
  for i = 0 to n - 1 do
    let kvco =
      Prng.gaussian prng ~mean:row.Pll_problem.kv
        ~sigma:(dk *. row.Pll_problem.kv)
    in
    let ivco =
      Prng.gaussian prng ~mean:row.Pll_problem.iv
        ~sigma:(di *. row.Pll_problem.iv)
    in
    draws.(i) <- (kvco, ivco)
  done;
  let configs =
    Array.map
      (fun (pll_cfg, _, _, _) -> pll_cfg)
      (Pll_problem.variant_configs cfg draws ~c1:row.Pll_problem.c1
         ~c2:row.Pll_problem.c2 ~r1:row.Pll_problem.r1)
  in
  let passes chunk =
    Array.map
      (fun perf -> (outcome cfg.Pll_problem.spec perf).pass)
      (B.Pll.evaluate_batch chunk)
  in
  let outcomes =
    E.Telemetry.time "yield.wall" @@ fun () ->
    E.Parmap.map_chunks ?pool passes configs
  in
  E.Telemetry.incr "yield.samples" ~by:n;
  Repro_util.Stats.yield ~pass:(count_passes outcomes) ~total:n
