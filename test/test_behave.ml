module B = Repro_behave

let checkf tol msg = Alcotest.(check (float tol)) msg

(* ---- loop filter ---- *)

let filter = { B.Loop_filter.c1 = 5e-12; c2 = 0.5e-12; r1 = 4e3 }

let test_filter_validate () =
  B.Loop_filter.validate filter;
  Alcotest.(check bool) "negative C rejected" true
    (try B.Loop_filter.validate { filter with B.Loop_filter.c1 = -1e-12 }; false
     with Invalid_argument _ -> true)

let test_filter_charge_integration () =
  (* constant current into the caps: final slope = i / (C1 + C2) *)
  let dt = 1e-10 and i = 1e-6 in
  let state = ref (B.Loop_filter.initial 0.0) in
  for _ = 1 to 10000 do
    state := B.Loop_filter.step filter !state ~i_in:i ~dt
  done;
  let t = 10000.0 *. dt in
  let expected = i *. t /. (filter.B.Loop_filter.c1 +. filter.B.Loop_filter.c2) in
  (* after initial transient both caps integrate the same current *)
  Alcotest.(check bool) "integrator slope" true
    (Float.abs (!state.B.Loop_filter.vctl -. expected) < 0.05 *. expected)

let test_filter_zero_input_holds () =
  let s0 = B.Loop_filter.initial 0.7 in
  let s = B.Loop_filter.step filter s0 ~i_in:0.0 ~dt:1e-9 in
  checkf 1e-12 "vctl holds" 0.7 s.B.Loop_filter.vctl;
  checkf 1e-12 "vc1 holds" 0.7 s.B.Loop_filter.vc1

let test_filter_ir_step () =
  (* an instantaneous current step initially drops across R1 + C2 path:
     vctl jumps faster than vc1 *)
  let s0 = B.Loop_filter.initial 0.0 in
  let s = B.Loop_filter.step filter s0 ~i_in:100e-6 ~dt:1e-10 in
  Alcotest.(check bool) "vctl leads vc1" true
    (s.B.Loop_filter.vctl > s.B.Loop_filter.vc1)

let test_filter_impedance_limits () =
  (* low frequency: |Z| ~ 1/(w (C1+C2)); high frequency: |Z| ~ 1/(w C2) *)
  let z_mag w = Complex.norm (B.Loop_filter.impedance filter w) in
  let w_lo = 1e3 and w_hi = 1e12 in
  let c_tot = filter.B.Loop_filter.c1 +. filter.B.Loop_filter.c2 in
  Alcotest.(check bool) "low-freq cap behaviour" true
    (Float.abs (z_mag w_lo -. (1.0 /. (w_lo *. c_tot))) /. (1.0 /. (w_lo *. c_tot))
    < 0.01);
  Alcotest.(check bool) "high-freq C2 behaviour" true
    (Float.abs (z_mag w_hi -. (1.0 /. (w_hi *. filter.B.Loop_filter.c2)))
     /. (1.0 /. (w_hi *. filter.B.Loop_filter.c2))
    < 0.05)

let test_pole_zero () =
  let wz, wp3, ct = B.Loop_filter.pole_zero filter in
  checkf 1.0 "zero" (1.0 /. (4e3 *. 5e-12)) wz;
  Alcotest.(check bool) "pole above zero" true (wp3 > wz);
  checkf 1e-15 "total C" 5.5e-12 ct

(* ---- PFD ---- *)

let test_pfd_sequence () =
  let pfd = B.Pfd.create () in
  Alcotest.(check bool) "starts neutral" true (B.Pfd.state pfd = B.Pfd.Neutral);
  B.Pfd.ref_edge pfd;
  Alcotest.(check bool) "ref -> up" true (B.Pfd.state pfd = B.Pfd.Up);
  B.Pfd.ref_edge pfd;
  Alcotest.(check bool) "up saturates" true (B.Pfd.state pfd = B.Pfd.Up);
  B.Pfd.div_edge pfd;
  Alcotest.(check bool) "div resets" true (B.Pfd.state pfd = B.Pfd.Neutral);
  B.Pfd.div_edge pfd;
  Alcotest.(check bool) "div -> down" true (B.Pfd.state pfd = B.Pfd.Down);
  B.Pfd.ref_edge pfd;
  Alcotest.(check bool) "ref resets from down" true
    (B.Pfd.state pfd = B.Pfd.Neutral);
  B.Pfd.div_edge pfd;
  B.Pfd.reset pfd;
  Alcotest.(check bool) "explicit reset" true (B.Pfd.state pfd = B.Pfd.Neutral)

let test_pfd_drive () =
  checkf 0.0 "up" 1.0 (B.Pfd.drive B.Pfd.Up);
  checkf 0.0 "neutral" 0.0 (B.Pfd.drive B.Pfd.Neutral);
  checkf 0.0 "down" (-1.0) (B.Pfd.drive B.Pfd.Down)

(* ---- charge pump ---- *)

let test_cp_ideal () =
  let cp = B.Charge_pump.ideal 100e-6 in
  checkf 1e-12 "up current" 100e-6 (B.Charge_pump.current cp B.Pfd.Up);
  checkf 1e-12 "down current" (-100e-6) (B.Charge_pump.current cp B.Pfd.Down);
  checkf 1e-12 "off" 0.0 (B.Charge_pump.current cp B.Pfd.Neutral)

let test_cp_mismatch () =
  let cp = B.Charge_pump.with_mismatch ~icp:100e-6 ~mismatch:0.1 in
  checkf 1e-12 "up skewed" 105e-6 (B.Charge_pump.current cp B.Pfd.Up);
  checkf 1e-12 "down skewed" (-95e-6) (B.Charge_pump.current cp B.Pfd.Down)

let test_cp_average () =
  let cp = B.Charge_pump.ideal 100e-6 in
  checkf 1e-12 "10% duty" 10e-6 (B.Charge_pump.average_current cp ~duty:0.1);
  Alcotest.(check bool) "bad icp" true
    (try ignore (B.Charge_pump.ideal 0.0); false with Invalid_argument _ -> true)

(* ---- divider ---- *)

let test_divider () =
  let d = B.Divider.create 4 in
  Alcotest.(check int) "modulus" 4 (B.Divider.modulus d);
  let outs = List.init 12 (fun _ -> B.Divider.clock_edge d) in
  let expected =
    [ false; false; false; true; false; false; false; true; false; false;
      false; true ]
  in
  Alcotest.(check (list bool)) "divide by 4" expected outs;
  B.Divider.reset d;
  Alcotest.(check bool) "reset restarts count" true
    (not (B.Divider.clock_edge d));
  Alcotest.(check bool) "bad modulus" true
    (try ignore (B.Divider.create 0); false with Invalid_argument _ -> true)

let test_divider_by_one () =
  let d = B.Divider.create 1 in
  Alcotest.(check bool) "every edge passes" true
    (List.for_all Fun.id (List.init 5 (fun _ -> B.Divider.clock_edge d)))

(* ---- VCO model ---- *)

let vco =
  { B.Vco_model.f0 = 700e6; v0 = 0.6; kvco = 800e6; fmin = 300e6;
    fmax = 1.4e9; jitter = 0.0 }

let test_vco_tuning_law () =
  checkf 1.0 "at v0" 700e6 (B.Vco_model.frequency vco 0.6);
  checkf 1.0 "slope" 780e6 (B.Vco_model.frequency vco 0.7);
  checkf 1.0 "clamp low" 300e6 (B.Vco_model.frequency vco (-5.0));
  checkf 1.0 "clamp high" 1.4e9 (B.Vco_model.frequency vco 5.0)

let test_vco_validate () =
  Alcotest.(check bool) "inverted clamps" true
    (try B.Vco_model.validate { vco with B.Vco_model.fmax = 100e6 }; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative jitter" true
    (try B.Vco_model.validate { vco with B.Vco_model.jitter = -1.0 }; false
     with Invalid_argument _ -> true)

let test_vco_edge_counting () =
  let t = B.Vco_model.create vco in
  (* 700 MHz for 10 ns = 7 cycles *)
  ignore (B.Vco_model.tune t ~vctl:0.6);
  let edges = ref 0 in
  for _ = 1 to 1000 do
    edges := !edges + B.Vco_model.advance t ~dt:1e-11
  done;
  Alcotest.(check bool) "edge count (float-accumulation boundary)" true
    (!edges = 6 || !edges = 7);
  Alcotest.(check (float 1e-3)) "phase" 7.0 (B.Vco_model.phase t);
  B.Vco_model.reset t;
  checkf 0.0 "reset phase" 0.0 (B.Vco_model.phase t)

let test_vco_jitter_is_random_walk () =
  (* accumulated timing error over n cycles ~ jitter * sqrt n *)
  let jitter = 1e-12 in
  let vco_j = { vco with B.Vco_model.jitter } in
  let n_cycles = 1000 in
  let trials = 64 in
  let prng = Repro_util.Prng.create 5 in
  let errors =
    Array.init trials (fun _ ->
        let t = B.Vco_model.create ~prng:(Repro_util.Prng.split prng) vco_j in
        let dt = 1e-11 in
        let f = B.Vco_model.tune t ~vctl:0.6 in
        let steps = ref 0 in
        while B.Vco_model.phase t < float_of_int n_cycles do
          ignore (B.Vco_model.advance t ~dt);
          incr steps
        done;
        (* time at which the target phase was crossed, minus ideal *)
        let overshoot = (B.Vco_model.phase t -. float_of_int n_cycles) /. f in
        (float_of_int !steps *. dt) -. overshoot
        -. (float_of_int n_cycles /. f))
  in
  let rms = Repro_util.Stats.stddev errors in
  let expected = jitter *. sqrt (float_of_int n_cycles) in
  Alcotest.(check bool)
    (Printf.sprintf "random walk scaling (got %.2e expect %.2e)" rms expected)
    true
    (rms > 0.5 *. expected && rms < 1.6 *. expected)

(* ---- linear analysis ---- *)

let loop = { B.Pll_linear.kvco = 800e6; icp = 100e-6; n_div = 8; filter }

let test_linear_analysis () =
  match B.Pll_linear.analyse loop with
  | None -> Alcotest.fail "expected a unity crossing"
  | Some a ->
    Alcotest.(check bool) "fc plausible" true
      (a.B.Pll_linear.unity_freq > 1e6 && a.B.Pll_linear.unity_freq < 50e6);
    Alcotest.(check bool) "phase margin positive" true
      (a.B.Pll_linear.phase_margin_deg > 10.0);
    Alcotest.(check bool) "stable" true a.B.Pll_linear.stable;
    (* |G| at fc is 1 by definition *)
    let g = B.Pll_linear.open_loop_gain loop a.B.Pll_linear.unity_freq in
    Alcotest.(check (float 1e-3)) "unity gain at fc" 1.0 (Complex.norm g)

let test_linear_gain_slope () =
  (* type-II loop: |G| falls monotonically with frequency *)
  let mags =
    List.map (fun f -> Complex.norm (B.Pll_linear.open_loop_gain loop f))
      [ 1e4; 1e5; 1e6; 1e7; 1e8 ]
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone rolloff" true (decreasing mags)

let test_linear_higher_icp_wider_bw () =
  let bw icp =
    match B.Pll_linear.analyse { loop with B.Pll_linear.icp } with
    | Some a -> a.B.Pll_linear.unity_freq
    | None -> 0.0
  in
  Alcotest.(check bool) "bandwidth grows with pump current" true
    (bw 200e-6 > bw 50e-6)

let test_settling_estimate () =
  match B.Pll_linear.settling_estimate loop ~tolerance:0.01 with
  | Some t -> Alcotest.(check bool) "sub-microsecond" true (t > 0.0 && t < 2e-6)
  | None -> Alcotest.fail "expected settling estimate"

(* ---- PLL ---- *)

let cfg =
  { B.Pll.fref = 100e6; n_div = 8; cp = B.Charge_pump.ideal 100e-6; filter;
    vco; ivco = 5e-3; overhead_current = 8e-3; vctl_init = 0.2 }

let test_pll_locks () =
  let sim = B.Pll.simulate cfg (B.Pll.default_sim_options cfg) in
  Alcotest.(check bool) "locked" true sim.B.Pll.locked;
  Alcotest.(check (float 2.0)) "final frequency within ripple" 800.0
    (sim.B.Pll.final_freq /. 1e6);
  Alcotest.(check bool) "lock time plausible" true
    (match sim.B.Pll.lock_time with
     | Some t -> t > 10e-9 && t < 1.5e-6
     | None -> false)

let test_pll_lock_from_above () =
  (* starting fast: the loop must pull the frequency down *)
  let sim =
    B.Pll.simulate { cfg with B.Pll.vctl_init = 1.4 }
      (B.Pll.default_sim_options cfg)
  in
  Alcotest.(check bool) "locked from above" true sim.B.Pll.locked

let test_pll_evaluate () =
  match B.Pll.evaluate cfg with
  | Error e -> Alcotest.failf "evaluate failed: %s" e
  | Ok p ->
    Alcotest.(check bool) "lock time" true (p.B.Pll.lock_time < 1e-6);
    Alcotest.(check bool) "jitter in ps range" true
      (p.B.Pll.jitter_sum >= 0.0 && p.B.Pll.jitter_sum < 50e-12);
    (* ivco + overhead + cp contribution *)
    Alcotest.(check bool) "current near budget" true
      (p.B.Pll.current >= 13e-3 && p.B.Pll.current < 14e-3)

let test_pll_jitter_sum_scales_with_jvco () =
  let eval jitter =
    match B.Pll.evaluate { cfg with B.Pll.vco = { vco with B.Vco_model.jitter } } with
    | Ok p -> p.B.Pll.jitter_sum
    | Error e -> Alcotest.failf "eval: %s" e
  in
  let j1 = eval 0.1e-12 and j2 = eval 0.2e-12 in
  Alcotest.(check (float 1e-14)) "jitter sum linear in jvco" (2.0 *. j1) j2

let test_pll_unstable_rejected () =
  (* tiny R1 kills the stabilising zero -> unstable -> evaluate fails *)
  let bad = { cfg with B.Pll.filter = { filter with B.Loop_filter.r1 = 10.0 } } in
  match B.Pll.evaluate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unstable loop accepted"

let test_pll_out_of_band_rejected () =
  (* target outside the VCO clamps: cannot lock *)
  let bad =
    { cfg with
      B.Pll.vco = { vco with B.Vco_model.fmin = 100e6; fmax = 500e6; f0 = 300e6 } }
  in
  match B.Pll.evaluate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "locked outside the VCO band"

let test_pll_trace_recorded () =
  let sim = B.Pll.simulate cfg (B.Pll.default_sim_options cfg) in
  Alcotest.(check bool) "traces non-empty" true
    (Array.length sim.B.Pll.vctl_trace > 100
    && Array.length sim.B.Pll.freq_trace > 100);
  (* times increase *)
  let ts = Array.map fst sim.B.Pll.vctl_trace in
  let ok = ref true in
  for i = 0 to Array.length ts - 2 do
    if ts.(i + 1) <= ts.(i) then ok := false
  done;
  Alcotest.(check bool) "trace times increase" true !ok

let test_pll_deterministic_without_prng () =
  let s1 = B.Pll.simulate cfg (B.Pll.default_sim_options cfg) in
  let s2 = B.Pll.simulate cfg (B.Pll.default_sim_options cfg) in
  Alcotest.(check bool) "identical runs" true
    (s1.B.Pll.final_vctl = s2.B.Pll.final_vctl
    && s1.B.Pll.lock_time = s2.B.Pll.lock_time)

let test_measured_jitter_accumulation () =
  let prng = Repro_util.Prng.create 3 in
  let jcfg =
    { cfg with B.Pll.vco = { vco with B.Vco_model.jitter = 0.15e-12 } }
  in
  let j = B.Pll.measured_output_jitter ~prng jcfg ~cycles:400 in
  let expected = 0.15e-12 *. sqrt 400.0 in
  Alcotest.(check bool)
    (Printf.sprintf "accumulation ~ j sqrt(n): %.2e vs %.2e" j expected)
    true
    (j > 0.6 *. expected && j < 1.5 *. expected)

(* The bits of every scalar result and an MD5 of both traces, for a pump
   that is ideal, mismatched or leaky, a loop that locks from below, from
   above or never, and a jittered run: a faster stepping loop must not
   move a single bit. *)
let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let trace_digest trace =
  let b = Buffer.create (Array.length trace * 16) in
  Array.iter
    (fun (t, v) ->
      Buffer.add_int64_le b (Int64.bits_of_float t);
      Buffer.add_int64_le b (Int64.bits_of_float v))
    trace;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sim_bits (r : B.Pll.sim_result) =
  Printf.sprintf "%b %s %s %s %s %d %s %d %s" r.B.Pll.locked
    (match r.B.Pll.lock_time with None -> "none" | Some t -> bits t)
    (bits r.B.Pll.final_vctl) (bits r.B.Pll.final_freq) (bits r.B.Pll.cp_duty)
    (Array.length r.B.Pll.vctl_trace)
    (trace_digest r.B.Pll.vctl_trace)
    (Array.length r.B.Pll.freq_trace)
    (trace_digest r.B.Pll.freq_trace)

let simulate_golden =
  [
    ( "ideal from below",
      cfg,
      None,
      "true 3e90c6f7a0b5ed8d 3fe737405f3b76f0 41c7da88c0dc1dd9 \
       3f467830373ccbdd 2000 b0143f80c48ad999b315391eba0e484a 2000 \
       cc964775755d2d4960be987fc2b24e55" );
    ( "ideal from above",
      { cfg with B.Pll.vctl_init = 1.4 },
      None,
      "true 3e9421f5f40d8376 3fe737405f3b75ce 41c7da88c0dc1d01 \
       3f4721323a2ba77d 2000 b14f042dbd1d8430d5256af3b9a71167 2000 \
       099acd3ba0b85f336cac4083e377357b" );
    ( "mismatched pump",
      { cfg with
        B.Pll.cp = B.Charge_pump.with_mismatch ~icp:100e-6 ~mismatch:0.1 },
      None,
      "true 3e901b2b29a4692c 3fe72dfca612ab33 41c7d3a1ae8b6588 \
       3f3bed61bed61bed 2000 d77ca2a416bfd56a1861b90a707bde3a 2000 \
       ae3c7665ac51b4469f30deb4e1ca5823" );
    ( "leaky pump",
      { cfg with
        B.Pll.cp =
          { (B.Charge_pump.ideal 100e-6) with B.Charge_pump.leakage = 1e-6 } },
      None,
      "true 3e90c6f7a0b5ed8d 3fe715101e14ae97 41c7c10fd0cb7487 \
       3f834f496f783f32 2000 ea0714b3b08a75f2c57384b4dadf4ce7 2000 \
       78abf030fffaa8eb41d25382f69d6a62" );
    ( "out of band",
      { cfg with
        B.Pll.vco =
          { vco with B.Vco_model.fmin = 100e6; fmax = 500e6; f0 = 300e6 } },
      None,
      "false none 403a284aea7ffc1d 41bdcd6500000000 3fe6c5d63886594b \
       2000 d3d8620896f4daacb7817c9896696dfc 2000 \
       b05a146a08752d3461a6df61e29419c7" );
    ( "jittered",
      { cfg with B.Pll.vco = { vco with B.Vco_model.jitter = 0.5e-12 } },
      Some 2009,
      "true 3e90c6f7a0b5ed8d 3fe72f2846293d8d 41c7d480eb8b2abd \
       3f4588838a44ee09 2000 5dd15b79417a28006f5e8e1d7589e811 2000 \
       d0768e5d1a75c1406a3a7e84145d8379" );
  ]

let test_pll_simulate_bits_golden () =
  List.iter
    (fun (name, c, seed, expected) ->
      let prng = Option.map Repro_util.Prng.create seed in
      let sim = B.Pll.simulate ?prng c (B.Pll.default_sim_options c) in
      Alcotest.(check string) name expected (sim_bits sim))
    simulate_golden

(* A step allocates only the boxes of the control voltage handed to the
   VCO and of the frequency it returns (4 words); recording the traces
   adds about 0.7 words a step. *)
let test_pll_allocation_bound () =
  let opts = B.Pll.default_sim_options cfg in
  let n_steps =
    int_of_float (Float.ceil (opts.B.Pll.t_stop /. opts.B.Pll.dt))
  in
  ignore (B.Pll.simulate cfg opts);
  let w0 = Gc.minor_words () in
  ignore (B.Pll.simulate cfg opts);
  let per_step = (Gc.minor_words () -. w0) /. float_of_int n_steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per step <= 6" per_step)
    true (per_step <= 6.0)

let test_pll_record_stride_rejected () =
  let opts = B.Pll.default_sim_options cfg in
  List.iter
    (fun record_stride ->
      Alcotest.check_raises
        (Printf.sprintf "record_stride %d" record_stride)
        (Invalid_argument "Pll.simulate: record_stride must be positive")
        (fun () ->
          ignore (B.Pll.simulate cfg { opts with B.Pll.record_stride })))
    [ 0; -3 ]

(* The bits of [evaluate]'s performance triple, or its error, for every
   configuration of [simulate_golden] (the jittered one differs only in
   the jitter sum: [evaluate] injects no noise). *)
let evaluate_golden =
  [
    ("ideal from below", "3e90c6f7a0b5ed8d 0000000000000000 3f8a9fc7aae15e4f");
    ("ideal from above", "3e9421f5f40d8376 0000000000000000 3f8a9fc7f01b206e");
    ("mismatched pump", "3e901b2b29a4692c 0000000000000000 3f8a9fc42efa36a7");
    ("leaky pump", "3e90c6f7a0b5ed8d 0000000000000000 3f8aa0c33ad8dc88");
    ("out of band", "did not lock within the simulated window");
    ("jittered", "3e90c6f7a0b5ed8d 3d88ae704a2709ac 3f8a9fc7aae15e4f");
  ]

let test_pll_evaluate_bits_golden () =
  List.iter
    (fun (name, c, _, _) ->
      let got =
        match B.Pll.evaluate c with
        | Ok p ->
          Printf.sprintf "%s %s %s" (bits p.B.Pll.lock_time)
            (bits p.B.Pll.jitter_sum) (bits p.B.Pll.current)
        | Error e -> e
      in
      Alcotest.(check string) name (List.assoc name evaluate_golden) got)
    simulate_golden

(* [evaluate] records no traces, so nothing of a call outlives it;
   recording them promoted about 28,000 words a call. *)
let test_pll_evaluate_promotes_nothing () =
  ignore (B.Pll.evaluate cfg);
  let calls = 50 in
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to calls do
    ignore (B.Pll.evaluate cfg)
  done;
  let per_call =
    ((Gc.quick_stat ()).Gc.major_words -. w0) /. float_of_int calls
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per call < 1000" per_call)
    true (per_call < 1000.0)

let test_vco_floor_bits () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "floor %h" x)
        (bits (Float.floor x))
        (bits (B.Vco_model.floor x)))
    [ -0.0; 0.0; 5e-324; 0.5; Float.pred 1.0; 1.0; Float.pred 0x1p52;
      0x1p52; Float.succ 0x1p53; Float.nan; Float.infinity; Float.neg_infinity;
      -1.5 ]

let suite =
  [
    Alcotest.test_case "filter validate" `Quick test_filter_validate;
    Alcotest.test_case "filter integrates charge" `Quick test_filter_charge_integration;
    Alcotest.test_case "filter holds at zero input" `Quick test_filter_zero_input_holds;
    Alcotest.test_case "filter IR step" `Quick test_filter_ir_step;
    Alcotest.test_case "filter impedance limits" `Quick test_filter_impedance_limits;
    Alcotest.test_case "filter pole/zero" `Quick test_pole_zero;
    Alcotest.test_case "pfd state machine" `Quick test_pfd_sequence;
    Alcotest.test_case "pfd drive" `Quick test_pfd_drive;
    Alcotest.test_case "charge pump ideal" `Quick test_cp_ideal;
    Alcotest.test_case "charge pump mismatch" `Quick test_cp_mismatch;
    Alcotest.test_case "charge pump average" `Quick test_cp_average;
    Alcotest.test_case "divider" `Quick test_divider;
    Alcotest.test_case "divider by one" `Quick test_divider_by_one;
    Alcotest.test_case "vco tuning law" `Quick test_vco_tuning_law;
    Alcotest.test_case "vco validation" `Quick test_vco_validate;
    Alcotest.test_case "vco edge counting" `Quick test_vco_edge_counting;
    Alcotest.test_case "vco jitter random walk" `Quick test_vco_jitter_is_random_walk;
    Alcotest.test_case "linear analysis" `Quick test_linear_analysis;
    Alcotest.test_case "linear gain slope" `Quick test_linear_gain_slope;
    Alcotest.test_case "bandwidth vs icp" `Quick test_linear_higher_icp_wider_bw;
    Alcotest.test_case "settling estimate" `Quick test_settling_estimate;
    Alcotest.test_case "pll locks" `Quick test_pll_locks;
    Alcotest.test_case "pll locks from above" `Quick test_pll_lock_from_above;
    Alcotest.test_case "pll evaluate" `Quick test_pll_evaluate;
    Alcotest.test_case "jitter sum scaling" `Quick test_pll_jitter_sum_scales_with_jvco;
    Alcotest.test_case "unstable rejected" `Quick test_pll_unstable_rejected;
    Alcotest.test_case "out-of-band rejected" `Quick test_pll_out_of_band_rejected;
    Alcotest.test_case "traces recorded" `Quick test_pll_trace_recorded;
    Alcotest.test_case "deterministic runs" `Quick test_pll_deterministic_without_prng;
    Alcotest.test_case "jitter accumulation" `Quick test_measured_jitter_accumulation;
    Alcotest.test_case "PLL simulate bits golden" `Quick
      test_pll_simulate_bits_golden;
    Alcotest.test_case "PLL allocation bound" `Quick test_pll_allocation_bound;
    Alcotest.test_case "PLL record_stride rejected" `Quick
      test_pll_record_stride_rejected;
    Alcotest.test_case "PLL evaluate bits golden" `Quick
      test_pll_evaluate_bits_golden;
    Alcotest.test_case "PLL evaluate promotes nothing" `Quick
      test_pll_evaluate_promotes_nothing;
    Alcotest.test_case "vco floor bits" `Quick test_vco_floor_bits;
  ]
