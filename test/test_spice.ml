(* MNA, DC operating point and transient analysis against analytic
   circuit theory *)
module C = Repro_circuit
module S = Repro_spice
module Source = C.Source
module Netlist = C.Netlist

let checkf tol msg = Alcotest.(check (float tol)) msg

(* the solvers' results; a solver error fails the test with its text *)
let ok_or_fail = function
  | Ok r -> r
  | Error e -> Alcotest.fail (S.Solver_error.to_string e)

let dcop ?x0 cm = ok_or_fail (S.Dcop.solve_result ?x0 cm)
let transient cm opts = ok_or_fail (S.Transient.run_result cm opts)

let solve_dc net =
  let cm = S.Mna.compile net in
  (cm, dcop cm)

(* ---- DC ---- *)

let test_voltage_divider () =
  let cm, r = solve_dc (C.Topologies.voltage_divider ~r1:1e3 ~r2:3e3 ~vin:2.0) in
  checkf 1e-6 "divider" 1.5 (S.Dcop.node_voltage cm r "out");
  (* branch current: 2 V across 4 kOhm, flowing out of + terminal *)
  checkf 1e-8 "source current" (-5e-4) (S.Dcop.source_current cm r "Vin")

let test_series_parallel_resistors () =
  let net = Netlist.create () in
  Netlist.vsource net "V1" "a" "0" (Source.Dc 10.0);
  Netlist.resistor net "R1" "a" "b" 1e3;
  Netlist.resistor net "R2" "b" "0" 1e3;
  Netlist.resistor net "R3" "b" "0" 1e3;
  let cm, r = solve_dc net in
  (* 1k in series with 500: v(b) = 10 * 500/1500 *)
  checkf 1e-6 "parallel combination" (10.0 /. 3.0)
    (S.Dcop.node_voltage cm r "b")

let test_current_source () =
  let net = Netlist.create () in
  Netlist.isource net "I1" "0" "a" (Source.Dc 1e-3);
  Netlist.resistor net "R1" "a" "0" 2e3;
  let cm, r = solve_dc net in
  (* 1 mA pushed into node a through 2k: v = 2 V *)
  checkf 1e-6 "current source into resistor" 2.0
    (S.Dcop.node_voltage cm r "a")

let test_kcl_superposition () =
  (* V and I sources together: superposition check *)
  let net = Netlist.create () in
  Netlist.vsource net "V1" "a" "0" (Source.Dc 5.0);
  Netlist.resistor net "R1" "a" "b" 1e3;
  Netlist.resistor net "R2" "b" "0" 1e3;
  Netlist.isource net "I1" "0" "b" (Source.Dc 1e-3);
  let cm, r = solve_dc net in
  (* v(b) = 5*(1k||)/... : by superposition 2.5 + 0.5 = 3.0 *)
  checkf 1e-6 "superposition" 3.0 (S.Dcop.node_voltage cm r "b")

let test_caps_open_in_dc () =
  let net = Netlist.create () in
  Netlist.vsource net "V1" "a" "0" (Source.Dc 3.0);
  Netlist.resistor net "R1" "a" "b" 1e3;
  Netlist.capacitor net "C1" "b" "0" 1e-9;
  let cm, r = solve_dc net in
  (* no DC path through the cap: no current, so v(b) = v(a) *)
  checkf 1e-6 "cap open" 3.0 (S.Dcop.node_voltage cm r "b")

let test_inverter_vtc_monotone () =
  let out_at vin =
    let cm, r =
      solve_dc (C.Topologies.inverter ~wn:2e-6 ~wp:4e-6 ~l:0.12e-6 (Source.Dc vin))
    in
    S.Dcop.node_voltage cm r "out"
  in
  let prev = ref infinity in
  List.iter
    (fun vin ->
      let v = out_at vin in
      if v > !prev +. 1e-6 then Alcotest.failf "VTC not monotone at %g" vin;
      prev := v)
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ];
  Alcotest.(check bool) "low in -> high out" true (out_at 0.0 > 1.1);
  Alcotest.(check bool) "high in -> low out" true (out_at 1.2 < 0.1)

let test_common_source_gain () =
  (* gain magnitude = gm * Rl: finite-difference the DC transfer *)
  let out vb =
    let cm, r = solve_dc (C.Topologies.common_source ~w:10e-6 ~l:0.5e-6 ~rload:5e3 vb) in
    S.Dcop.node_voltage cm r "out"
  in
  let g = (out 0.61 -. out 0.59) /. 0.02 in
  Alcotest.(check bool) "inverting gain > 1" true (g < -1.0)

let test_dcop_seed_reuse () =
  let net = C.Topologies.voltage_divider ~r1:1e3 ~r2:1e3 ~vin:1.0 in
  let cm = S.Mna.compile net in
  let r1 = dcop cm in
  let r2 = dcop ~x0:r1.S.Dcop.solution cm in
  Alcotest.(check bool) "seeded solve converges fast" true
    (r2.S.Dcop.iterations <= r1.S.Dcop.iterations)

(* ---- transient ---- *)

(* The recorded-waveform post-processing the characterisation ran before
   it measured each transient as it stepped, kept as the oracle of
   [Waveform.Window]: the sub-waveform of [t_start, t_end], the mean
   crossing slope (summed newest first) and the swing check. *)
let window (w : S.Waveform.t) ~t_start ~t_end =
  let keep = ref [] in
  for i = S.Waveform.length w - 1 downto 0 do
    if w.times.(i) >= t_start && w.times.(i) <= t_end then keep := i :: !keep
  done;
  let idx = Array.of_list !keep in
  if Array.length idx = 0 then invalid_arg "window: empty window";
  S.Waveform.create
    (Array.map (fun i -> w.times.(i)) idx)
    (Array.map (fun i -> w.values.(i)) idx)

let slew_at_crossings ~direction (w : S.Waveform.t) ~level =
  let slopes = ref [] in
  for i = 0 to S.Waveform.length w - 2 do
    let va = w.values.(i) -. level and vb = w.values.(i + 1) -. level in
    let hit =
      match direction with
      | S.Waveform.Rising -> va < 0.0 && vb >= 0.0
      | S.Waveform.Falling -> va > 0.0 && vb <= 0.0
      | S.Waveform.Either -> (va < 0.0 && vb >= 0.0) || (va > 0.0 && vb <= 0.0)
    in
    if hit then begin
      let dt = w.times.(i + 1) -. w.times.(i) in
      if dt > 0.0 then
        slopes :=
          Float.abs ((w.values.(i + 1) -. w.values.(i)) /. dt) :: !slopes
    end
  done;
  match !slopes with
  | [] -> 0.0
  | slopes -> Repro_util.Stats.mean (Array.of_list slopes)


let step_source =
  Source.Pulse
    { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-12; fall = 1e-12;
      width = 1.0; period = 0.0 }

let test_rc_step_response () =
  let net = C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:step_source in
  let cm = S.Mna.compile net in
  let res = transient cm (S.Transient.default_options ~t_stop:5e-6 ~dt:5e-9) in
  let w = S.Transient.node_wave res "out" in
  (* compare against v(t) = 1 - exp(-t/tau) at several taus *)
  List.iter
    (fun k ->
      let t = k *. 1e-6 in
      let expected = 1.0 -. exp (-.k) in
      let got = S.Waveform.value_at w t in
      if Float.abs (got -. expected) > 2e-3 then
        Alcotest.failf "RC response at %g tau: %g vs %g" k got expected)
    [ 0.5; 1.0; 2.0; 3.0 ]

let test_rc_charge_conservation () =
  (* current through R equals C dv/dt: check final equilibrium *)
  let net = C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:step_source in
  let cm = S.Mna.compile net in
  let res =
    transient cm (S.Transient.default_options ~t_stop:20e-6 ~dt:10e-9)
  in
  let w = S.Transient.node_wave res "out" in
  checkf 1e-3 "settles to input" 1.0
    (S.Waveform.value_at w 20e-6)

let test_rc_sine_attenuation () =
  (* at f = 1/(2 pi tau) the lowpass passes 1/sqrt(2) *)
  let tau = 1e-6 in
  let fc = 1.0 /. (2.0 *. Float.pi *. tau) in
  let net =
    C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9
      ~vin:(Source.Sin { offset = 0.0; ampl = 1.0; freq = fc; phase_deg = 0.0 })
  in
  let cm = S.Mna.compile net in
  let res =
    transient cm (S.Transient.default_options ~t_stop:40e-6 ~dt:20e-9)
  in
  let w = S.Transient.node_wave res "out" in
  let settled = window w ~t_start:20e-6 ~t_end:40e-6 in
  let amplitude = S.Waveform.peak_to_peak settled /. 2.0 in
  Alcotest.(check (float 0.02)) "-3 dB point" (1.0 /. sqrt 2.0) amplitude

let test_transient_ic_override () =
  let net = C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:(Source.Dc 0.0) in
  let cm = S.Mna.compile net in
  let opts =
    { (S.Transient.default_options ~t_stop:3e-6 ~dt:5e-9) with
      S.Transient.ic = [ ("out", 1.0) ] }
  in
  let res = transient cm opts in
  let w = S.Transient.node_wave res "out" in
  (* discharges through R: v(tau) = exp(-1) *)
  checkf 5e-3 "discharge from IC" (exp (-1.0)) (S.Waveform.value_at w 1e-6)

let test_transient_records_branch_current () =
  let net = C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:step_source in
  let cm = S.Mna.compile net in
  let res = transient cm (S.Transient.default_options ~t_stop:1e-6 ~dt:5e-9) in
  let i = S.Transient.source_current_wave res "Vin" in
  (* just after the step the full 1 V sits across R: i = -1 mA through the
     source (current convention: + to - inside the source) *)
  Alcotest.(check (float 5e-5)) "initial charging current" (-1e-3)
    (S.Waveform.value_at i 20e-9)

let test_ring_oscillator_oscillates () =
  let net = C.Topologies.ring_vco ~vctl:0.9 C.Topologies.vco_default in
  let cm = S.Mna.compile net in
  let opts =
    { (S.Transient.default_options ~t_stop:10e-9 ~dt:3e-12) with
      S.Transient.ic = [ ("s1", 1.2); ("s2", 0.0); ("s3", 1.2); ("s4", 0.0); ("s5", 0.6) ] }
  in
  let res = transient cm opts in
  let w =
    window (S.Transient.node_wave res "s1") ~t_start:5e-9 ~t_end:10e-9
  in
  match S.Waveform.frequency w ~level:0.6 with
  | Some f -> Alcotest.(check bool) "plausible frequency" true (f > 100e6 && f < 5e9)
  | None -> Alcotest.fail "ring did not oscillate"

let test_mna_invalid_resistor () =
  let net = Netlist.create () in
  Netlist.resistor net "R1" "a" "0" 0.0;
  Alcotest.(check bool) "zero resistor rejected" true
    (try ignore (S.Mna.compile net); false with Invalid_argument _ -> true)

let test_branch_lookup () =
  let net = C.Topologies.voltage_divider ~r1:1e3 ~r2:1e3 ~vin:1.0 in
  let cm = S.Mna.compile net in
  Alcotest.(check bool) "unknown source raises" true
    (try ignore (S.Mna.branch_index cm "nosuch"); false with Not_found -> true)

let test_transient_noise_jitter () =
  (* direct noisy simulation vs the analytic estimator: the injected
     thermal channel noise must produce measurable period jitter that is
     (a) far above the numerical floor of the clean run and (b) below the
     analytic total (which also includes flicker, not modelled by white
     injection) *)
  let p = C.Topologies.vco_default in
  let net = C.Topologies.ring_vco ~vctl:0.85 p in
  let cm = S.Mna.compile net in
  let run noise =
    let opts =
      { (S.Transient.default_options ~t_stop:40e-9 ~dt:4e-12) with
        S.Transient.ic =
          [ ("s1", 1.2); ("s2", 0.0); ("s3", 1.2); ("s4", 0.0); ("s5", 0.6) ];
        noise }
    in
    let res = transient cm opts in
    let w =
      window (S.Transient.node_wave res "s1") ~t_start:12e-9 ~t_end:40e-9
    in
    S.Waveform.period_jitter_rms w ~level:0.6
  in
  match (run None, run (Some (Repro_util.Prng.create 17))) with
  | Some clean, Some noisy ->
    Alcotest.(check bool)
      (Printf.sprintf "noise dominates the floor (%.3g vs %.3g)" noisy clean)
      true
      (noisy > 3.0 *. clean);
    (match S.Vco_measure.characterise p with
    | Ok perf ->
      Alcotest.(check bool) "measured below the analytic total" true
        (noisy < perf.S.Vco_measure.jvco)
    | Error f -> Alcotest.failf "characterise: %s" (S.Vco_measure.failure_to_string f))
  | _ -> Alcotest.fail "jitter measurement failed"

(* Monte-Carlo engine plumbing *)
let test_monte_carlo_counts () =
  let net = C.Topologies.voltage_divider ~r1:1e3 ~r2:1e3 ~vin:1.0 in
  let prng = Repro_util.Prng.create 3 in
  let mc =
    S.Monte_carlo.run ~n:10 ~prng net (fun perturbed ->
        let cm = S.Mna.compile perturbed in
        let r = dcop cm in
        Ok (S.Dcop.node_voltage cm r "out"))
  in
  Alcotest.(check int) "all samples ok" 10 (Array.length mc.S.Monte_carlo.samples);
  Alcotest.(check int) "no failures" 0 mc.S.Monte_carlo.failures;
  (* resistor-only netlist: no MOS to perturb, so samples are identical *)
  Array.iter (fun v -> checkf 1e-6 "identical" 0.5 v) mc.S.Monte_carlo.samples

let test_monte_carlo_failures_counted () =
  let net = C.Topologies.voltage_divider ~r1:1e3 ~r2:1e3 ~vin:1.0 in
  let prng = Repro_util.Prng.create 3 in
  let count = ref 0 in
  let mc =
    S.Monte_carlo.run ~n:6 ~prng net (fun _ ->
        incr count;
        if !count mod 2 = 0 then Error "simulated failure" else Ok 1.0)
  in
  Alcotest.(check int) "3 failures" 3 mc.S.Monte_carlo.failures;
  Alcotest.(check int) "3 passes" 3 (Array.length mc.S.Monte_carlo.samples)

let test_spread_of_samples () =
  let s = S.Monte_carlo.spread_of_samples ~nominal:10.0 [| 9.0; 10.0; 11.0 |] in
  checkf 1e-9 "mean" 10.0 s.S.Monte_carlo.mc_mean;
  checkf 1e-9 "nominal kept" 10.0 s.S.Monte_carlo.nominal;
  checkf 1e-9 "rel spread" 0.1 s.S.Monte_carlo.rel_spread

(* ---- result-based solver API ---- *)

(* solver failures are values: a converging DC solve and transient are
   [Ok], and a transient without a Newton budget underflows its first
   step instead of raising *)
let test_result_api () =
  let net = C.Topologies.voltage_divider ~r1:1e3 ~r2:3e3 ~vin:2.0 in
  let cm = S.Mna.compile net in
  (match S.Dcop.solve_result cm with
  | Error e -> Alcotest.failf "solve_result: %s" (S.Solver_error.to_string e)
  | Ok r ->
    Alcotest.(check string) "direct Newton" "direct" r.S.Dcop.strategy;
    checkf 1e-6 "divider" 1.5 (S.Dcop.node_voltage cm r "out"));
  let opts = S.Transient.default_options ~t_stop:1e-6 ~dt:1e-8 in
  (match S.Transient.run_result cm opts with
  | Error e -> Alcotest.failf "run_result: %s" (S.Solver_error.to_string e)
  | Ok res ->
    Alcotest.(check int) "every step recorded" 101
      (Array.length (S.Transient.times res)));
  match S.Transient.run_result cm { opts with S.Transient.max_newton = 0 } with
  | Error (S.Solver_error.Step_underflow { time }) ->
    checkf 0.0 "underflow at the first step" 0.0 time
  | Error e ->
    Alcotest.failf "not an underflow: %s" (S.Solver_error.to_string e)
  | Ok _ -> Alcotest.fail "converged without a Newton iteration"

let test_solver_error_rendering () =
  Alcotest.(check string) "no-convergence"
    "dcop: direct, gmin and source stepping all failed"
    (S.Solver_error.to_string
       (S.Solver_error.No_convergence
          { stage = "dcop"; detail = "direct, gmin and source stepping all failed" }));
  Alcotest.(check string) "step underflow" "step failure at t=1e-09"
    (S.Solver_error.to_string (S.Solver_error.Step_underflow { time = 1e-9 }))

(* ---- kernel pins ---- *)

(* the ring VCO every kernel test runs: a diode-connected bias PMOS
   stamps one Jacobian slot twice, and the stages swing both ways *)
let ring_vco () =
  S.Mna.compile (C.Topologies.ring_vco ~vctl:0.85 C.Topologies.vco_default)

let ring_opts =
  { (S.Transient.default_options ~t_stop:12e-9 ~dt:5e-12) with
    S.Transient.ic =
      [ ("s1", 1.2); ("s2", 0.0); ("s3", 1.2); ("s4", 0.0); ("s5", 0.6) ] }

(* The five floats of the default VCO's characterisation, bit for bit.
   A kernel change that reorders or alters one floating-point operation
   fails here first; a change meant to move bits updates these and says
   so.  The cleared registry makes the first factorisation choose the
   pivot order from this characterisation's own matrix, as in a fresh
   process. *)
let test_characterise_bits_golden () =
  Repro_linalg.Sparse_lu.clear_cache ();
  match S.Vco_measure.characterise C.Topologies.vco_default with
  | Error f ->
    Alcotest.failf "characterise: %s" (S.Vco_measure.failure_to_string f)
  | Ok p ->
    let bits name expected got =
      Alcotest.(check string) name expected (Printf.sprintf "%h" got)
    in
    bits "kvco" "0x1.25061d64c752bp+28" p.S.Vco_measure.kvco;
    bits "ivco" "0x1.980dc297cad6bp-8" p.S.Vco_measure.ivco;
    bits "jvco" "0x1.fc5402ad84a04p-43" p.S.Vco_measure.jvco;
    bits "fmin" "0x1.9d379ab66713p+27" p.S.Vco_measure.fmin;
    bits "fmax" "0x1.abf1942ce3784p+29" p.S.Vco_measure.fmax

(* A warm ring-VCO transient allocates per step what it records (a
   row of 21 floats), the boxed time it passes its observer and a
   Newton call's closures, options and report, about 109 words in all
   on OCaml 5.1; nothing per device, capacitor or iteration.  The bound leaves a
   little room for other compilers and fails once residual assembly,
   MOSFET stamping or the device law box a float per element again:
   one boxed float per device and evaluation is about 165 words a
   step, and the kernel before the device law moved into [Mna] read
   about 600. *)
let test_transient_allocation_bound () =
  let cm = ring_vco () in
  let run () =
    match S.Transient.run_result cm ring_opts with
    | Ok r -> r
    | Error e -> Alcotest.failf "transient: %s" (S.Solver_error.to_string e)
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  let steps = Array.length (S.Transient.times r) - 1 in
  let per_step = words /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per step (at most 150)" per_step)
    true (per_step <= 150.0)

(* the direct MOSFET loop of the Newton hot path adds in the order of
   the generic Jacobian pass, so both give the same bits, in either
   channel orientation and under either capacitor mode *)
let prop_direct_stamp_equals_stamp_jacobian =
  let cm = ring_vco () in
  let n = S.Mna.size cm and ncaps = S.Mna.cap_count cm in
  let bits a = Array.map Int64.bits_of_float a in
  QCheck.Test.make ~count:100 ~name:"direct stamp equals stamp_jacobian"
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.return n) (float_range (-0.3) 1.5))
        (float_range 1e-6 1e-2))
    (fun (x, g) ->
      List.for_all
        (fun cap_mode ->
          let direct, reference =
            S.Mna.mos_stamp_paths cm ~x ~gmin:1e-12 ~cap_mode
          in
          bits direct = bits reference)
        [
          S.Mna.Dc;
          S.Mna.Companion
            { geq = Array.make ncaps g; ieq = Array.make ncaps 0.0 };
        ])

(* the layer counters are published once per transient and add up *)
let test_transient_counters () =
  let cm = ring_vco () in
  let read () =
    List.map Repro_engine.Telemetry.counter
      [ "tran.runs"; "tran.steps"; "tran.newton" ]
  in
  let before = read () in
  match S.Transient.run_result cm ring_opts with
  | Error e -> Alcotest.failf "transient: %s" (S.Solver_error.to_string e)
  | Ok r ->
    Alcotest.(check (list int)) "runs, steps, newton"
      [
        1;
        Array.length (S.Transient.times r) - 1;
        S.Transient.total_newton_iterations r;
      ]
      (List.map2 ( - ) (read ()) before)

(* Every recorded time and unknown of a transient, as the hex digest of
   their bit patterns: nodes in id order, then the voltage sources'
   branch currents in netlist order.  A cleared registry lets the first
   factorisation pick the pivot order from this run's own matrix. *)
let transient_digest net opts =
  Repro_linalg.Sparse_lu.clear_cache ();
  let r = transient (S.Mna.compile net) opts in
  let buf = Buffer.create 65536 in
  let add v = Buffer.add_int64_le buf (Int64.bits_of_float v) in
  Array.iter add (S.Transient.times r);
  for node = 1 to Netlist.node_count net - 1 do
    Array.iter add
      (S.Transient.node_wave r (Netlist.node_name net node)).S.Waveform.values
  done;
  List.iter
    (function
      | Netlist.Vsource { name; _ } ->
        Array.iter add (S.Transient.source_current_wave r name).S.Waveform.values
      | _ -> ())
    (Netlist.elements net);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The bits the Newton kernel can reach, recorded before the kernel was
   last rewritten: the characterisation's base window at the three
   control voltages it measures, the 48 ns / 10 ps shape of a window
   extension, and a process-sampled instance whose devices carry
   non-zero [vth_shift] and [kp_scale]. *)
let test_transient_bits_golden () =
  let ring vctl = C.Topologies.ring_vco ~vctl C.Topologies.vco_default in
  let check name expected net opts =
    Alcotest.(check string) name expected (transient_digest net opts)
  in
  check "vctl 0.5" "d35c1f82464bebcc9b08b1dc1d61b6e0" (ring 0.5) ring_opts;
  check "vctl 0.85" "a4e75a44f04516db77335bcbe93af04a" (ring 0.85) ring_opts;
  check "vctl 1.2" "800157923d215ad02c31fd9cbae8b58d" (ring 1.2) ring_opts;
  check "48 ns / 10 ps window at vctl 0.5"
    "a1fee5017e91aee3102cefbf2087c6bd" (ring 0.5)
    { (S.Transient.default_options ~t_stop:48e-9 ~dt:10e-12) with
      S.Transient.ic = ring_opts.S.Transient.ic };
  let sampled =
    C.Process.sample C.Process.default (Repro_util.Prng.create 2009) (ring 0.85)
  in
  check "process-sampled at vctl 0.85" "a034e42a502e310afcd414fb9ac8a0db"
    sampled ring_opts

(* A residual built from the device linearisation a scratch already
   holds, the replay a transient step's first Newton iteration takes,
   equals a fresh scratch's bit for bit, also when the gmin, the source
   scale or the capacitor mode changed since the scratch was filled *)
let prop_replayed_residual_equals_fresh =
  let cm = ring_vco () in
  let n = S.Mna.size cm and ncaps = S.Mna.cap_count cm in
  let bits a = Array.map Int64.bits_of_float a in
  let setting =
    QCheck.Gen.(
      triple
        (oneofl [ 0.0; 1e-12; 1e-3 ])
        (float_range 0.1 1.0)
        (opt (pair (float_range 1e-6 1e-2) (float_range (-1e-3) 1e-3))))
  in
  let cap_mode = function
    | None -> S.Mna.Dc
    | Some (g, i) ->
      S.Mna.Companion
        {
          geq = Array.init ncaps (fun k -> g *. float_of_int (k + 1));
          ieq = Array.make ncaps i;
        }
  in
  QCheck.Test.make ~count:100 ~name:"replayed residual equals a fresh one"
    (QCheck.make
       QCheck.Gen.(
         triple (array_size (return n) (float_range (-0.3) 1.5)) setting setting))
    (fun (x, (g1, s1, c1), (g2, s2, c2)) ->
      let replayed, fresh =
        S.Mna.replayed_residual cm ~x ~first:(g1, s1, cap_mode c1)
          ~second:(g2, s2, cap_mode c2)
      in
      bits replayed = bits fresh)

(* The characterisation's paths beyond the default sizing's, bit for
   bit: the five floats of a sizing whose [vctl_lo] window resolves only
   after its extension, of one whose extended [vctl_lo] window stays
   unresolved (so [fmin] is the measurement floor), and of a
   [Process.sample] instance (the Monte-Carlo trial path), plus the
   failure of a sizing too slow to measure at [vctl_hi].  Recorded
   before the measurement moved beside the stepping loop. *)
let test_characterise_paths_bits_golden () =
  let sizing hex =
    C.Topologies.vco_params_of_vector
      (Array.of_list (List.map float_of_string hex))
  in
  let check name expected r =
    Repro_linalg.Sparse_lu.clear_cache ();
    let got =
      match r () with
      | Ok p ->
        String.concat " "
          (List.map (Printf.sprintf "%h")
             S.Vco_measure.[ p.kvco; p.ivco; p.jvco; p.fmin; p.fmax ])
      | Error f -> S.Vco_measure.failure_to_string f
    in
    Alcotest.(check string) name expected got
  in
  let lo_extended =
    sizing
      [ "0x1.1aaea3c1b6cbp-16"; "0x1.3842c98bc29adp-22";
        "0x1.e9985568a8d17p-15"; "0x1.b9d8c584d537cp-23";
        "0x1.7a0608435255ep-16"; "0x1.38a1bfcdb557dp-15";
        "0x1.921d2dd117fadp-23" ]
  in
  check "vctl_lo resolved after its extension"
    "0x1.3ef86b8096608p+27 0x1.6e3a0692ac0fp-8 0x1.0c244ac6a1359p-42 \
     0x1.0fa8b63d4c37ap+27 0x1.0ca5e4f6421a9p+29"
    (fun () -> S.Vco_measure.characterise lo_extended);
  check "vctl_lo unresolved: fmin at the floor"
    "0x1.f06838c64590ep+24 0x1.e219130d17931p-10 0x1.a21cac1ecc5f4p-38 \
     0x1.dcd65p+26 0x1.6e68f0dc28e2dp+27"
    (fun () ->
      S.Vco_measure.characterise
        (sizing
           [ "0x1.17f789f5980b3p-15"; "0x1.3c4637a32815ep-23";
             "0x1.c9225829ad9f1p-17"; "0x1.c579fb1a20f3fp-21";
             "0x1.72042fc4c0735p-16"; "0x1.8c719c8cc98cfp-17";
             "0x1.2973f2ce5fc85p-22" ]));
  check "vctl_hi too slow" "too slow to measure" (fun () ->
      S.Vco_measure.characterise
        (sizing
           [ "0x1.0fd06c392083p-14"; "0x1.3a0cddb04661ep-21";
             "0x1.a692739436825p-17"; "0x1.3975a9f6dad67p-21";
             "0x1.00af0dd3a7d5dp-16"; "0x1.46b6fbfcf5ecp-15";
             "0x1.05115a5758612p-20" ]));
  let o = S.Vco_measure.default_options in
  check "process-sampled"
    "0x1.3987e8d0f9154p+27 0x1.6e6e6b5f83d2cp-8 0x1.22fd3a18c40cdp-42 \
     0x1.18fa391ca89a9p+27 0x1.0c81fe86e3cbdp+29"
    (fun () ->
      S.Vco_measure.characterise_netlist
        (C.Process.sample C.Process.default (Repro_util.Prng.create 2009)
           (C.Topologies.ring_vco ~stages:o.stages ~vdd:o.vdd ~vctl:o.vctl_lo
              lo_extended)))

(* The characterisation measures each transient as it steps and
   records none of it.  Warm, [characterise vco_default] (4 transients,
   12,000 steps) allocates about 8,600 words in the major heap on
   OCaml 5.1, promoted or allocated there directly; recording every
   step and windowing copies of its columns read 479,207.  The bound
   fails as soon as a waveform-sized allocation returns to this path;
   [transient allocation bound] covers the recording path. *)
let test_characterise_allocation_bound () =
  let run () =
    match S.Vco_measure.characterise C.Topologies.vco_default with
    | Ok _ -> ()
    | Error f ->
      Alcotest.failf "characterise: %s" (S.Vco_measure.failure_to_string f)
  in
  run ();
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let w0 = major () in
  run ();
  let words = major () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major-heap words (at most 20000)" words)
    true (words <= 20000.0)

(* What a window reads of a transient as it steps equals, bit for bit,
   what the recorded-waveform post-processing reads of [run_result]'s
   recording of the same transient: the crossing count, the frequency,
   the mean supply current, every stage's rising and falling slews and
   s1's extremes.  Random sizings from the paper's design space, some
   of them process-sampled, at each control voltage and over the base
   window and the extended one. *)
let prop_window_equals_recording =
  let o = S.Vco_measure.default_options in
  let mid = o.vdd /. 2.0 in
  let gen =
    QCheck.Gen.(
      quad
        (array_size (return 7) (float_range 0.0 1.0))
        (opt (int_bound 10_000))
        (oneofl [ o.vctl_lo; 0.5 *. (o.vctl_lo +. o.vctl_hi); o.vctl_hi ])
        bool)
  in
  let print (u, seed, vctl, extended) =
    Printf.sprintf "sizing [%s], process seed %s, vctl %g, %s window"
      (String.concat "; " (Array.to_list (Array.map string_of_float u)))
      (match seed with None -> "none" | Some s -> string_of_int s)
      vctl
      (if extended then "extended" else "base")
  in
  let bits = Int64.bits_of_float in
  let stage i = Printf.sprintf "s%d" (i + 1) in
  QCheck.Test.make ~count:16
    ~name:"window equals the recording's post-processing"
    (QCheck.make ~print gen)
    (fun (u, seed, vctl, extended) ->
      let params =
        C.Topologies.vco_params_of_vector
          (Array.mapi
             (fun i (lo, hi) -> lo +. (u.(i) *. (hi -. lo)))
             C.Topologies.vco_bounds)
      in
      let net =
        C.Topologies.ring_vco ~stages:o.stages ~vdd:o.vdd ~vctl params
      in
      let net =
        match seed with
        | None -> net
        | Some s ->
          C.Process.sample C.Process.default (Repro_util.Prng.create s) net
      in
      let cm = S.Mna.compile net in
      let t_stop, dt =
        if extended then (4.0 *. o.t_stop, 2.0 *. o.dt) else (o.t_stop, o.dt)
      in
      let opts =
        { (S.Transient.default_options ~t_stop ~dt) with
          S.Transient.ic = ring_opts.S.Transient.ic }
      in
      let t_start = 0.5 *. t_stop in
      Repro_linalg.Sparse_lu.clear_cache ();
      let recorded =
        match S.Transient.run_result cm opts with
        | Error e -> Error e
        | Ok r ->
          let w name =
            window (S.Transient.node_wave r name) ~t_start ~t_end:t_stop
          in
          let w1 = w "s1" in
          let lo, hi = Repro_util.Stats.min_max w1.S.Waveform.values in
          Ok
            ( Array.length
                (S.Waveform.crossings ~direction:Rising w1 ~level:mid),
              Option.map bits
                (S.Waveform.frequency ~direction:Rising w1 ~level:mid),
              bits
                (S.Waveform.mean
                   (window (S.Transient.source_current_wave r "Vdd") ~t_start
                      ~t_end:t_stop)),
              List.init o.stages (fun i ->
                  let wi = w (stage i) in
                  ( bits (slew_at_crossings ~direction:Rising wi ~level:mid),
                    bits (slew_at_crossings ~direction:Falling wi ~level:mid)
                  )),
              (bits lo, bits hi) )
      in
      Repro_linalg.Sparse_lu.clear_cache ();
      let index name =
        Option.value ~default:(-1)
          (S.Mna.node_index cm (S.Mna.node_of_name cm name))
      in
      let win =
        S.Waveform.Window.create ~t_start ~t_end:t_stop ~level:mid
          ~edges:(Array.init o.stages (fun i -> index (stage i)))
          ~mean:(S.Mna.branch_index cm "Vdd")
      in
      let streamed =
        match
          S.Transient.run cm opts ~observe:(S.Waveform.Window.observe win)
        with
        | Error e -> Error e
        | Ok _ ->
          let lo, hi = S.Waveform.Window.extremes win in
          Ok
            ( S.Waveform.Window.rising_crossings win,
              Option.map bits (S.Waveform.Window.frequency win),
              bits (S.Waveform.Window.mean win),
              List.init o.stages (fun i ->
                  let sr, sf = S.Waveform.Window.slews win i in
                  (bits sr, bits sf)),
              (bits lo, bits hi) )
      in
      recorded = streamed)

let suite =
  [
    Alcotest.test_case "voltage divider" `Quick test_voltage_divider;
    Alcotest.test_case "series/parallel" `Quick test_series_parallel_resistors;
    Alcotest.test_case "current source" `Quick test_current_source;
    Alcotest.test_case "superposition" `Quick test_kcl_superposition;
    Alcotest.test_case "caps open at DC" `Quick test_caps_open_in_dc;
    Alcotest.test_case "inverter VTC" `Quick test_inverter_vtc_monotone;
    Alcotest.test_case "common source gain" `Quick test_common_source_gain;
    Alcotest.test_case "dcop seeding" `Quick test_dcop_seed_reuse;
    Alcotest.test_case "RC step response" `Quick test_rc_step_response;
    Alcotest.test_case "RC settles" `Quick test_rc_charge_conservation;
    Alcotest.test_case "RC -3dB attenuation" `Quick test_rc_sine_attenuation;
    Alcotest.test_case "transient IC override" `Quick test_transient_ic_override;
    Alcotest.test_case "branch current recording" `Quick test_transient_records_branch_current;
    Alcotest.test_case "ring oscillates" `Quick test_ring_oscillator_oscillates;
    Alcotest.test_case "transient noise jitter" `Quick test_transient_noise_jitter;
    Alcotest.test_case "invalid resistor" `Quick test_mna_invalid_resistor;
    Alcotest.test_case "branch lookup" `Quick test_branch_lookup;
    Alcotest.test_case "monte carlo counts" `Quick test_monte_carlo_counts;
    Alcotest.test_case "monte carlo failures" `Quick test_monte_carlo_failures_counted;
    Alcotest.test_case "spread of samples" `Quick test_spread_of_samples;
    Alcotest.test_case "result-based solver API" `Quick test_result_api;
    Alcotest.test_case "solver error rendering" `Quick test_solver_error_rendering;
    Alcotest.test_case "characterise bits golden" `Quick
      test_characterise_bits_golden;
    Alcotest.test_case "transient allocation bound" `Quick
      test_transient_allocation_bound;
    QCheck_alcotest.to_alcotest prop_direct_stamp_equals_stamp_jacobian;
    Alcotest.test_case "transient counters" `Quick test_transient_counters;
    Alcotest.test_case "transient bits golden" `Quick test_transient_bits_golden;
    QCheck_alcotest.to_alcotest prop_replayed_residual_equals_fresh;
    Alcotest.test_case "characterise paths bits golden" `Quick
      test_characterise_paths_bits_golden;
    Alcotest.test_case "characterise allocation bound" `Quick
      test_characterise_allocation_bound;
    QCheck_alcotest.to_alcotest prop_window_equals_recording;
  ]
