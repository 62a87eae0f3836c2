module B = Repro_behave
module P = Repro_moo.Problem

type table2_row = {
  kv : float;
  kv_min : float;
  kv_max : float;
  iv : float;
  iv_min : float;
  iv_max : float;
  c1 : float;
  c2 : float;
  r1 : float;
  lock : float;
  lock_min : float;
  lock_max : float;
  jit : float;
  jit_min : float;
  jit_max : float;
  curr : float;
  curr_min : float;
  curr_max : float;
}

let pp_row ppf r =
  Format.fprintf ppf
    "Kv=%.0f[%.0f,%.0f]MHz/V Iv=%.2f[%.2f,%.2f]mA C1=%s C2=%s R1=%s | Lt=%.2fus Jit=%.2f[%.2f,%.2f]ps I=%.1f[%.1f,%.1f]mA"
    (r.kv /. 1e6) (r.kv_min /. 1e6) (r.kv_max /. 1e6) (r.iv *. 1e3)
    (r.iv_min *. 1e3) (r.iv_max *. 1e3)
    (Repro_util.Si.format r.c1)
    (Repro_util.Si.format r.c2)
    (Repro_util.Si.format r.r1)
    (r.lock *. 1e6) (r.jit *. 1e12) (r.jit_min *. 1e12) (r.jit_max *. 1e12)
    (r.curr *. 1e3) (r.curr_min *. 1e3) (r.curr_max *. 1e3)

type model_query = (float * float) array -> Perf_table.point_eval array

type config = {
  spec : Spec.t;
  model : Perf_table.t;
  icp : float;
  overhead_current : float;
  use_variation : bool;
  c1_bounds : float * float;
  c2_bounds : float * float;
  r1_bounds : float * float;
  query : model_query option;
}

let default_config ~model =
  {
    spec = Spec.default;
    model;
    icp = 200e-6;
    overhead_current = 8e-3;
    use_variation = true;
    c1_bounds = (1e-12, 12e-12);
    c2_bounds = (0.1e-12, 1.2e-12);
    r1_bounds = (1e3, 20e3);
    query = None;
  }

let run_query cfg points =
  match cfg.query with
  | None -> Perf_table.eval_points cfg.model points
  | Some q ->
    let r = q points in
    if Array.length r <> Array.length points then
      invalid_arg "Pll_problem: model_query returned a wrong-sized batch";
    r

let objective_names = [| "lock_time"; "jitter_sum"; "current" |]

(* one PLL variant: a (kvco, ivco) operating point with its interpolated
   jitter and band edges, taken from an already-computed model query *)
let variant_of_eval cfg (pe : Perf_table.point_eval) ~kvco ~ivco ~c1 ~c2 ~r1 =
  let jvco, _, _ = pe.Perf_table.q_jvco in
  let fmin = pe.Perf_table.q_fmin in
  let fmax = pe.Perf_table.q_fmax in
  let f0 = 0.5 *. (fmin +. fmax) in
  let vco =
    {
      B.Vco_model.f0;
      v0 = 0.9;
      kvco;
      fmin = Float.min fmin (0.9 *. cfg.spec.Spec.f_target);
      fmax = Float.max fmax (1.1 *. cfg.spec.Spec.f_target);
      jitter = jvco;
    }
  in
  ( {
      B.Pll.fref = cfg.spec.Spec.fref;
      n_div = cfg.spec.Spec.n_div;
      cp = B.Charge_pump.ideal cfg.icp;
      filter = { B.Loop_filter.c1; c2; r1 };
      vco;
      ivco;
      overhead_current = cfg.overhead_current;
      vctl_init = 0.2;
    },
    jvco,
    fmin,
    fmax )

let variant_configs cfg points ~c1 ~c2 ~r1 =
  Array.map2
    (fun (kvco, ivco) pe -> variant_of_eval cfg pe ~kvco ~ivco ~c1 ~c2 ~r1)
    points (run_query cfg points)

let variant_config cfg ~kvco ~ivco ~c1 ~c2 ~r1 =
  (variant_configs cfg [| (kvco, ivco) |] ~c1 ~c2 ~r1).(0)

(* One candidate's nominal model query and its three behavioural PLLs *)
type candidate = {
  pe : Perf_table.point_eval;
  nominal : B.Pll.config;
  low : B.Pll.config;
  high : B.Pll.config;
}

(* Two oracle calls per candidate: the nominal point, then the two
   worst-case variants as one batch — the shape the served batch
   endpoint is sized for. *)
let candidate cfg x =
  let kvco = x.(0) and ivco = x.(1) and c1 = x.(2) and c2 = x.(3)
  and r1 = x.(4) in
  let pe = (run_query cfg [| (kvco, ivco) |]).(0) in
  let _, kv_min, kv_max = pe.Perf_table.q_kvco in
  let _, iv_min, iv_max = pe.Perf_table.q_ivco in
  let variants = run_query cfg [| (kv_min, iv_min); (kv_max, iv_max) |] in
  let pll pe ~kvco ~ivco =
    let pll_cfg, _, _, _ = variant_of_eval cfg pe ~kvco ~ivco ~c1 ~c2 ~r1 in
    pll_cfg
  in
  {
    pe;
    nominal = pll pe ~kvco ~ivco;
    low = pll variants.(0) ~kvco:kv_min ~ivco:iv_min;
    high = pll variants.(1) ~kvco:kv_max ~ivco:iv_max;
  }

let row_of x pe (nom : B.Pll.performance) low high =
  let _, kv_min, kv_max = pe.Perf_table.q_kvco in
  let _, iv_min, iv_max = pe.Perf_table.q_ivco in
  let pick f = (f nom, f low, f high) in
  let minmax3 (a, b, c) = (Float.min a (Float.min b c), Float.max a (Float.max b c)) in
  let locks = pick (fun p -> p.B.Pll.lock_time) in
  let jits = pick (fun p -> p.B.Pll.jitter_sum) in
  let currs = pick (fun p -> p.B.Pll.current) in
  let lock_min, lock_max = minmax3 locks in
  let jit_min, jit_max = minmax3 jits in
  let curr_min, curr_max = minmax3 currs in
  let (lock, _, _), (jit, _, _), (curr, _, _) = (locks, jits, currs) in
  {
    kv = x.(0);
    kv_min;
    kv_max;
    iv = x.(1);
    iv_min;
    iv_max;
    c1 = x.(2);
    c2 = x.(3);
    r1 = x.(4);
    lock;
    lock_min;
    lock_max;
    jit;
    jit_min;
    jit_max;
    curr;
    curr_min;
    curr_max;
  }

let timed busy f =
  match busy with
  | None -> f ()
  | Some h -> Repro_obs.Histogram.time h f

(* Full nominal/min/max evaluation of a batch of decision vectors, also
   returning each candidate's nominal model query, which the GA's
   constraint check reuses for its band edges.  Every candidate first
   makes its two model queries, in input order, on the calling domain.
   Then three lockstep phases run, each split into one chunk per pool
   worker: the nominal variants, the low variants of the candidates
   whose nominal evaluated, and the high variants of those whose low
   variant evaluated.  So a candidate fails with its first error in
   that order, and the batch runs as many simulations as its
   candidates one by one. *)
let evaluate_full ?pool ?busy cfg xs =
  let queried = timed busy (fun () -> Array.map (candidate cfg) xs) in
  let n = Array.length xs in
  let phase stepped pll =
    let idx = Array.of_list (List.filter stepped (List.init n Fun.id)) in
    let perf =
      Repro_engine.Parmap.map_chunks ?pool ?busy B.Pll.evaluate_batch
        (Array.map (fun i -> pll queried.(i)) idx)
    in
    let out = Array.make n None in
    Array.iteri (fun k i -> out.(i) <- Some perf.(k)) idx;
    out
  in
  let evaluated results i =
    match results.(i) with Some (Ok _) -> true | _ -> false
  in
  let nom = phase (fun _ -> true) (fun c -> c.nominal) in
  let low = phase (evaluated nom) (fun c -> c.low) in
  let high = phase (evaluated low) (fun c -> c.high) in
  let ( let* ) = Result.bind in
  Array.mapi
    (fun i x ->
      let* nom = Option.get nom.(i) in
      let* low = Option.get low.(i) in
      let* high = Option.get high.(i) in
      let pe = queried.(i).pe in
      Ok (row_of x pe nom low high, pe))
    xs

let evaluate_points ?pool cfg xs =
  Array.map (Result.map fst) (evaluate_full ?pool cfg xs)

let evaluate_point cfg ~kvco ~ivco ~c1 ~c2 ~r1 =
  (evaluate_points cfg [| [| kvco; ivco; c1; c2; r1 |] |]).(0)

(* spec-violation amount for a row, in normalised units; [pe] is the
   nominal-point model query the row was built from *)
let violation cfg row (pe : Perf_table.point_eval) =
  let s = cfg.spec in
  let fmin = pe.Perf_table.q_fmin in
  let fmax = pe.Perf_table.q_fmax in
  let lock_limit = if cfg.use_variation then row.lock_max else row.lock in
  let curr_limit = if cfg.use_variation then row.curr_max else row.curr in
  let over v limit = Float.max 0.0 ((v -. limit) /. limit) in
  over lock_limit s.Spec.lock_time_max
  +. over curr_limit s.Spec.current_max
  +. over fmin s.Spec.f_out_low (* band must reach down below f_out_low *)
  +. over s.Spec.f_out_high fmax (* ... and up above f_out_high *)

let bounds cfg =
  let kvr = Perf_table.kvco_range cfg.model in
  let ivr = Perf_table.ivco_range cfg.model in
  [| kvr; ivr; cfg.c1_bounds; cfg.c2_bounds; cfg.r1_bounds |]

(* Graded violation for un-evaluable candidates: constraint domination
   needs a slope toward feasibility, so unstable loops are scored by how
   far the phase margin is from healthy (an all-flat penalty would leave
   the GA blind when the stable corner of the box is small). *)
let infeasibility_grade cfg ~kvco ~c1 ~c2 ~r1 =
  let loop =
    {
      Repro_behave.Pll_linear.kvco;
      icp = cfg.icp;
      n_div = cfg.spec.Spec.n_div;
      filter = { Repro_behave.Loop_filter.c1; c2; r1 };
    }
  in
  match Repro_behave.Pll_linear.analyse loop with
  | None -> 30.0
  | Some a ->
    let fc = a.Repro_behave.Pll_linear.unity_freq in
    let gardner = cfg.spec.Spec.fref /. 8.0 in
    if not a.Repro_behave.Pll_linear.stable then begin
      let pm = a.Repro_behave.Pll_linear.phase_margin_deg in
      10.0 +. Repro_util.Floatx.clamp ~lo:0.0 ~hi:10.0 ((30.0 -. pm) /. 5.0)
    end
    else if fc > gardner then
      (* bandwidth above the Gardner limit: slope back toward fref/8 *)
      8.0 +. Repro_util.Floatx.clamp ~lo:0.0 ~hi:5.0 (fc /. gardner -. 1.0)
    else 6.0 (* linearly healthy yet unlocked (e.g. band clamping) *)

let problem cfg =
  Spec.validate cfg.spec;
  let evaluation x = function
    | Ok (row, pe) ->
      {
        P.objectives = [| row.lock; row.jit; row.curr |];
        constraint_violation = violation cfg row pe;
      }
    | Error _ ->
      {
        P.objectives = Array.make 3 infinity;
        constraint_violation =
          infeasibility_grade cfg ~kvco:x.(0) ~c1:x.(2) ~c2:x.(3) ~r1:x.(4);
      }
  in
  P.create_batched ~name:"pll-system" ~bounds:(bounds cfg) ~objective_names
    (fun ?pool ?busy xs ->
      Array.map2 evaluation xs (evaluate_full ?pool ?busy cfg xs))

(* Design selection (the paper's "shaded row").  Standard DFY practice:
   prefer the lowest-jitter row that clears the spec with comfortable
   margin (60% of the lock budget, 95% of the current budget) and fall
   back to bare feasibility.  With [use_variation] the screening uses the
   worst-case variant — the paper's improvement; without it (the method
   of reference [10]) only nominal values are visible to the selector,
   which is what costs yield in the ablation. *)
let select_design cfg rows =
  let s = cfg.spec in
  let lock_of row = if cfg.use_variation then row.lock_max else row.lock in
  let curr_of row = if cfg.use_variation then row.curr_max else row.curr in
  let meets ~lock_frac ~curr_frac row =
    lock_of row <= lock_frac *. s.Spec.lock_time_max
    && curr_of row <= curr_frac *. s.Spec.current_max
  in
  let pick pred =
    Array.to_list rows
    |> List.filter pred
    |> List.sort (fun a b -> compare a.jit b.jit)
    |> function
    | [] -> None
    | best :: _ -> Some best
  in
  match pick (meets ~lock_frac:0.6 ~curr_frac:0.95) with
  | Some row -> Some row
  | None -> pick (meets ~lock_frac:1.0 ~curr_frac:1.0)
