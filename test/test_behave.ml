module B = Repro_behave

let checkf tol msg = Alcotest.(check (float tol)) msg

(* ---- loop filter ---- *)

let filter = { B.Loop_filter.c1 = 5e-12; c2 = 0.5e-12; r1 = 4e3 }

let vco =
  { B.Vco_model.f0 = 700e6; v0 = 0.6; kvco = 800e6; fmin = 300e6;
    fmax = 1.4e9; jitter = 0.0 }

let cfg =
  { B.Pll.fref = 100e6; n_div = 8; cp = B.Charge_pump.ideal 100e-6; filter;
    vco; ivco = 5e-3; overhead_current = 8e-3; vctl_init = 0.2 }

(* one backward-Euler step of [Pll]'s loop from [(vctl, vc1)] with
   current [i_in] into the control node *)
let filter_step ~i_in ~dt (vctl, vc1) =
  let k = B.Pll.filter_coeffs filter ~dt in
  let inj = B.Loop_filter.injection filter ~i_in ~dt in
  (B.Pll.filter_vctl k ~vctl ~vc1 ~inj, B.Pll.filter_vc1 k ~vctl ~vc1 ~inj)

let test_filter_validate () =
  B.Loop_filter.validate filter;
  Alcotest.(check bool) "negative C rejected" true
    (try B.Loop_filter.validate { filter with B.Loop_filter.c1 = -1e-12 }; false
     with Invalid_argument _ -> true)

let test_filter_charge_integration () =
  (* constant current into the caps: final slope = i / (C1 + C2) *)
  let dt = 1e-10 and i = 1e-6 in
  let state = ref (0.0, 0.0) in
  for _ = 1 to 10000 do
    state := filter_step ~i_in:i ~dt !state
  done;
  let t = 10000.0 *. dt in
  let expected = i *. t /. (filter.B.Loop_filter.c1 +. filter.B.Loop_filter.c2) in
  (* after initial transient both caps integrate the same current *)
  Alcotest.(check bool) "integrator slope" true
    (Float.abs (fst !state -. expected) < 0.05 *. expected)

let test_filter_zero_input_holds () =
  let vctl, vc1 = filter_step ~i_in:0.0 ~dt:1e-9 (0.7, 0.7) in
  checkf 1e-12 "vctl holds" 0.7 vctl;
  checkf 1e-12 "vc1 holds" 0.7 vc1

let test_filter_ir_step () =
  (* an instantaneous current step initially drops across R1 + C2 path:
     vctl jumps faster than vc1 *)
  let vctl, vc1 = filter_step ~i_in:100e-6 ~dt:1e-10 (0.0, 0.0) in
  Alcotest.(check bool) "vctl leads vc1" true (vctl > vc1)

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

let test_filter_impedance_midband () =
  (* between the two limits, across the zero (8 MHz) and the third pole
     (88 MHz): Z must be the circuit's own form, C2 in parallel with the
     series R1-C1 branch *)
  let { B.Loop_filter.c1; c2; r1 } = filter in
  let open Complex in
  for k = 0 to 16 do
    let f = 1e5 *. (10.0 ** (float_of_int k /. 4.0)) in
    let w = 2.0 *. Float.pi *. f in
    let jw c = { re = 0.0; im = w *. c } in
    let branch = add { re = r1; im = 0.0 } (inv (jw c1)) in
    let expected = inv (add (jw c2) (inv branch)) in
    let z = B.Loop_filter.impedance filter w in
    let err = norm (sub z expected) /. norm expected in
    if err > 1e-9 then
      Alcotest.failf "impedance at %g Hz off by %g (relative)" f err
  done

(* ---- PFD ---- *)

let test_pfd_sequence () =
  (* the first two steps see no clock edge, so the pump stays off only
     if the loop starts the detector at [Neutral] *)
  let opts = B.Pll.default_sim_options cfg in
  let first_steps =
    B.Pll.simulate cfg { opts with B.Pll.t_stop = 2.0 *. opts.B.Pll.dt }
  in
  checkf 0.0 "starts neutral" 0.0 first_steps.B.Pll.cp_duty;
  let s = B.Pll.pfd_ref_edge B.Pfd.Neutral in
  Alcotest.(check bool) "ref -> up" true (s = B.Pfd.Up);
  let s = B.Pll.pfd_ref_edge s in
  Alcotest.(check bool) "up saturates" true (s = B.Pfd.Up);
  let s = B.Pll.pfd_div_edge s in
  Alcotest.(check bool) "div resets" true (s = B.Pfd.Neutral);
  let s = B.Pll.pfd_div_edge s in
  Alcotest.(check bool) "div -> down" true (s = B.Pfd.Down);
  Alcotest.(check bool) "ref resets from down" true
    (B.Pll.pfd_ref_edge s = B.Pfd.Neutral)

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

(* the divider's count after each of [edges] VCO edges, from 0 *)
let divider_counts ~n edges =
  let count = ref 0 in
  List.init edges (fun _ ->
      count := B.Pll.divider_count ~n !count;
      !count)

let test_divider () =
  let counts = divider_counts ~n:4 12 in
  Alcotest.(check (list int)) "modulus" [ 1; 2; 3; 0 ]
    (List.filteri (fun i _ -> i < 4) counts);
  let outs = List.map (fun c -> c = 0) counts in
  let expected =
    [ false; false; false; true; false; false; false; true; false; false;
      false; true ]
  in
  Alcotest.(check (list bool)) "divide by 4" expected outs

let test_divider_by_one () =
  Alcotest.(check bool) "every edge passes" true
    (List.for_all (fun c -> c = 0) (divider_counts ~n:1 5))

(* ---- VCO model ---- *)

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
  (* 700 MHz for 10 ns = 7 cycles; an edge is a rise of the phase's
     floor over a step *)
  let f = B.Vco_model.frequency vco 0.6 in
  let phi = ref 0.0 and phi_floor = ref 0.0 and edges = ref 0 in
  for _ = 1 to 1000 do
    phi := B.Pll.vco_phase ~f ~dt:1e-11 ~noise:0.0 !phi;
    let floor_now = B.Pll.floor !phi in
    edges := !edges + (int_of_float floor_now - int_of_float !phi_floor);
    phi_floor := floor_now
  done;
  Alcotest.(check bool) "edge count (float-accumulation boundary)" true
    (!edges = 6 || !edges = 7);
  Alcotest.(check (float 1e-3)) "phase" 7.0 !phi

let test_vco_jitter_is_random_walk () =
  (* accumulated timing error over n cycles ~ jitter * sqrt n *)
  let jitter = 1e-12 in
  let vco_j = { vco with B.Vco_model.jitter } in
  let n_cycles = 1000 in
  let trials = 64 in
  let prng = Repro_util.Prng.create 5 in
  let errors =
    Array.init trials (fun _ ->
        let prng = Repro_util.Prng.split prng in
        let dt = 1e-11 in
        let f = B.Vco_model.frequency vco_j 0.6 in
        let phi = ref 0.0 and steps = ref 0 in
        while !phi < float_of_int n_cycles do
          let noise = B.Pll.vco_jitter prng vco_j ~f ~dt in
          phi := B.Pll.vco_phase ~f ~dt ~noise !phi;
          incr steps
        done;
        (* time at which the target phase was crossed, minus ideal *)
        let overshoot = (!phi -. float_of_int n_cycles) /. f in
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
   above or never, a divider by one, a VCO held on its fmax clamp,
   jittered runs on two seeds and a loop that loses its lock and locks
   again: a faster stepping loop must not move a single bit. *)
let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let trace_digest trace =
  let b = Buffer.create (Array.length trace * 16) in
  Array.iter
    (fun (t, v) ->
      Buffer.add_int64_le b (Int64.bits_of_float t);
      Buffer.add_int64_le b (Int64.bits_of_float v))
    trace;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A system-level candidate over the committed fixture model (100 MHz
   reference, x8, 200 uA pump): its loop is declared locked, drops out
   of band and is declared locked again, so its pump duty counts the
   active steps of both lock episodes. *)
let relock =
  {
    B.Pll.fref = 100e6;
    n_div = 8;
    cp = B.Charge_pump.ideal 200e-6;
    filter =
      {
        B.Loop_filter.c1 = 0x1.6ebb2932ac08ep-37;
        c2 = 0x1.140d4e8fe1fa1p-40;
        r1 = 0x1.618be96ab4813p+12;
      };
    vco =
      {
        B.Vco_model.f0 = 0x1.7e0d3a0fe441dp+29;
        v0 = 0.9;
        kvco = 0x1.03fda2209a50ep+29;
        fmin = 0x1.eeb8e66f7a9c6p+27;
        fmax = 0x1.40361d41f4ee4p+30;
        jitter = 0x1.213a7e4677acbp-42;
      };
    ivco = 0x1.39a5ce625be1ap-7;
    overhead_current = 8e-3;
    vctl_init = 0.2;
  }

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
    ( "divide by one",
      { cfg with B.Pll.n_div = 1; fref = 800e6 },
      None,
      "true 3e71c83c5fd0ccc1 3fe7333333336bca 41c7d78400002a2a \
       3f30f1fc7a16aeb7 16000 738037e36baf837123336fd2c74ea8ea 16000 \
       78646f1e03c9a2ccc1f0a5fb7d76b75a" );
    ( "held on the fmax clamp",
      { cfg with B.Pll.vco = { vco with B.Vco_model.fmax = 798e6 } },
      None,
      "true 3e6ad7f29abcaf49 402e07cdf5d48a08 41c7c841c0000000 \
       3fd698cff3659cc0 2000 fcdc7796dbd7fd4af16e9260f9055ac3 2000 \
       d3168affd1dbce8a552407e521335adc" );
    ( "jittered, second seed",
      { cfg with B.Pll.vco = { vco with B.Vco_model.jitter = 0.5e-12 } },
      Some 7,
      "true 3e90c6f7a0b5ed8d 3fe6e6ff2fd6de15 41c79ebd65c8809a \
       3f4a36e2eb1c432d 2000 902cb8996d3b2653a37d52c08cfa29c5 2000 \
       dc3d65bf02023156d21be1ae82725eb7" );
    ( "lock lost and regained",
      relock,
      None,
      "true 3e9a2b4a3cac5c29 3fecbc7f38d216cb 41c7d88c4f23bc13 \
       3f455ea9520965a0 2000 c0e9ba1f9b74f09d3272fd386e8c2a3a 2000 \
       8da8d31463877250e8ba080cc3e2547b" );
  ]

let test_pll_simulate_bits_golden () =
  List.iter
    (fun (name, c, seed, expected) ->
      let prng = Option.map Repro_util.Prng.create seed in
      let sim = B.Pll.simulate ?prng c (B.Pll.default_sim_options c) in
      Alcotest.(check string) name expected (sim_bits sim))
    simulate_golden

(* A step allocates nothing: its state lives in unboxed locals and it
   calls no function in another module.  Recording the traces adds
   about 0.7 words a step. *)
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
    (Printf.sprintf "%.2f minor words per step <= 1" per_step)
    true (per_step <= 1.0)

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
   configuration of [simulate_golden] (the jittered ones differ only in
   the jitter sum: [evaluate] injects no noise). *)
let evaluate_golden =
  [
    ("ideal from below", "3e90c6f7a0b5ed8d 0000000000000000 3f8a9fc7aae15e4f");
    ("ideal from above", "3e9421f5f40d8376 0000000000000000 3f8a9fc7f01b206e");
    ("mismatched pump", "3e901b2b29a4692c 0000000000000000 3f8a9fc42efa36a7");
    ("leaky pump", "3e90c6f7a0b5ed8d 0000000000000000 3f8aa0c33ad8dc88");
    ("out of band", "did not lock within the simulated window");
    ("jittered", "3e90c6f7a0b5ed8d 3d88ae704a2709ac 3f8a9fc7aae15e4f");
    ("divide by one", "3e71c83c5fd0ccc1 0000000000000000 3f8a9fc1ef341dec");
    ("held on the fmax clamp",
     "3e6ad7f29abcaf49 0000000000000000 3f8ab24161daa458");
    ("jittered, second seed",
     "3e90c6f7a0b5ed8d 3d88ae704a2709ac 3f8a9fc7aae15e4f");
    ("lock lost and regained",
     "3e9a2b4a3cac5c29 3d75d461153333e4 3f91fe5e1d542103");
  ]

let perf_text = function
  | Ok p ->
    Printf.sprintf "%s %s %s" (bits p.B.Pll.lock_time)
      (bits p.B.Pll.jitter_sum) (bits p.B.Pll.current)
  | Error e -> e

let test_pll_evaluate_bits_golden () =
  List.iter
    (fun (name, c, _, _) ->
      Alcotest.(check string) name (List.assoc name evaluate_golden)
        (perf_text (B.Pll.evaluate c)))
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
        (bits (B.Pll.floor x)))
    [ -0.0; 0.0; 5e-324; 0.5; Float.pred 1.0; 1.0; Float.pred 0x1p52;
      0x1p52; Float.succ 0x1p53; Float.nan; Float.infinity; Float.neg_infinity;
      -1.5 ]

(* [simulate] rejects a divider that could never produce an edge *)
let test_pll_rejects_zero_modulus () =
  Alcotest.(check bool) "n_div = 0 rejected" true
    (try
       ignore
         (B.Pll.simulate { cfg with B.Pll.n_div = 0 }
            (B.Pll.default_sim_options cfg));
       false
     with Invalid_argument _ -> true)

(* [measured_output_jitter]'s result, bit for bit, on the [jitter
   accumulation] configuration: it steps the VCO through the same laws as
   [simulate], and its trials draw from split PRNG streams in order. *)
let test_measured_jitter_bits_golden () =
  let prng = Repro_util.Prng.create 3 in
  let jcfg =
    { cfg with B.Pll.vco = { vco with B.Vco_model.jitter = 0.15e-12 } }
  in
  Alcotest.(check string) "measured output jitter" "3d88ae697007534e"
    (bits (B.Pll.measured_output_jitter ~prng jcfg ~cycles:400))

let counted f =
  let count = Repro_engine.Telemetry.counter in
  let sims = count "pll.sims" and steps = count "pll.steps" in
  let r = f () in
  (r, count "pll.sims" - sims, count "pll.steps" - steps)

(* [evaluate_batch] steps the configs that pass the linear screen in
   lockstep, one group per reference frequency: at any batch size each
   result, error strings included, and the pll.sims / pll.steps counts
   equal those of one [evaluate] per config.  The 64 configs cycle
   through every golden configuration (locking, non-locking, n_div = 1
   at a second fref, the fmax clamp, the lock regained) plus an
   unstable loop and one without a unity-gain crossing, each round with
   a 1% larger C1. *)
let test_pll_batch_against_single () =
  let unstable =
    { cfg with B.Pll.filter = { filter with B.Loop_filter.r1 = 10.0 } }
  and no_crossing = { cfg with B.Pll.cp = B.Charge_pump.ideal 1e-20 } in
  let bases =
    Array.of_list
      (List.map (fun (_, c, _, _) -> c) simulate_golden
      @ [ unstable; no_crossing ])
  in
  let n = 64 and nb = Array.length bases in
  let cfgs =
    Array.init n (fun i ->
        let c = bases.(i mod nb) in
        let f = c.B.Pll.filter in
        let scale = 1.0 +. (0.01 *. float_of_int (i / nb)) in
        { c with
          B.Pll.filter = { f with B.Loop_filter.c1 = f.B.Loop_filter.c1 *. scale } })
  in
  let single, sims, steps =
    counted (fun () -> Array.map (fun c -> perf_text (B.Pll.evaluate c)) cfgs)
  in
  let has prefix =
    Array.exists (fun s -> String.starts_with ~prefix s) single
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) ("the mix has " ^ prefix) true (has prefix))
    [ "3e"; "did not lock"; "unstable loop"; "loop has no unity-gain crossing" ];
  List.iter
    (fun size ->
      let batched, b_sims, b_steps =
        counted (fun () ->
            Array.concat
              (List.init ((n + size - 1) / size) (fun k ->
                   let lo = k * size in
                   Array.map perf_text
                     (B.Pll.evaluate_batch
                        (Array.sub cfgs lo (min size (n - lo)))))))
      in
      Array.iteri
        (fun i expected ->
          Alcotest.(check string)
            (Printf.sprintf "batch %d, config %d" size i)
            expected batched.(i))
        single;
      Alcotest.(check int) (Printf.sprintf "batch %d pll.sims" size) sims b_sims;
      Alcotest.(check int)
        (Printf.sprintf "batch %d pll.steps" size)
        steps b_steps)
    [ 1; 2; 3; 64 ]

(* A lockstep step allocates nothing either: a batch's state is
   allocated once per call, and what remains is the linear screens *)
let test_pll_batch_allocation_bound () =
  let n = 60 in
  let cfgs =
    Array.init n (fun i ->
        { cfg with B.Pll.vctl_init = 0.2 +. (0.02 *. float_of_int i) })
  in
  ignore (B.Pll.evaluate_batch cfgs);
  let w0 = Gc.minor_words () in
  let (), _, steps = counted (fun () -> ignore (B.Pll.evaluate_batch cfgs)) in
  let per_step = (Gc.minor_words () -. w0) /. float_of_int steps in
  Alcotest.(check int) "every config stepped" (n * 40000) steps;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per simulation-step <= 1" per_step)
    true (per_step <= 1.0)

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
    Alcotest.test_case "filter impedance mid-band" `Quick
      test_filter_impedance_midband;
    Alcotest.test_case "pll rejects n_div 0" `Quick
      test_pll_rejects_zero_modulus;
    Alcotest.test_case "jitter accumulation bits golden" `Quick
      test_measured_jitter_bits_golden;
    Alcotest.test_case "PLL batch against single" `Quick
      test_pll_batch_against_single;
    Alcotest.test_case "PLL batch allocation bound" `Quick
      test_pll_batch_allocation_bound;
  ]
