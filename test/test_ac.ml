(* AC small-signal analysis and OTA characterisation *)
module C = Repro_circuit
module S = Repro_spice
module Source = C.Source
module Netlist = C.Netlist

let linearised net =
  let cm = S.Mna.compile net in
  let op = Test_spice.dcop cm in
  S.Ac.linearise cm op

let test_rc_transfer_exact () =
  (* RC lowpass: H = 1/(1 + j w R C), analytic at any frequency *)
  let r = 1e3 and c = 1e-9 in
  let ac = linearised (C.Topologies.rc_lowpass ~r ~c ~vin:(Source.Dc 0.0)) in
  List.iter
    (fun f ->
      let h = S.Ac.transfer ac ~input:"Vin" ~output:"out" f in
      let w = 2.0 *. Float.pi *. f in
      let expected = Complex.div Complex.one { re = 1.0; im = w *. r *. c } in
      if Complex.norm (Complex.sub h expected) > 1e-6 then
        Alcotest.failf "RC transfer wrong at %g Hz" f)
    [ 10.0; 1e3; 159.155e3; 1e6; 1e9 ]

let test_rc_3db_and_phase () =
  let ac =
    linearised (C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:(Source.Dc 0.0))
  in
  let fc = 1.0 /. (2.0 *. Float.pi *. 1e-6) in
  let h = S.Ac.transfer ac ~input:"Vin" ~output:"out" fc in
  Alcotest.(check (float 1e-6)) "magnitude at fc" (1.0 /. sqrt 2.0)
    (Complex.norm h);
  Alcotest.(check (float 1e-3)) "phase at fc" (-45.0)
    (Complex.arg h *. 180.0 /. Float.pi)

let test_divider_flat () =
  (* a resistive divider is frequency-independent *)
  let ac = linearised (C.Topologies.voltage_divider ~r1:1e3 ~r2:1e3 ~vin:1.0) in
  List.iter
    (fun f ->
      let h = S.Ac.transfer ac ~input:"Vin" ~output:"out" f in
      Alcotest.(check (float 1e-9)) "flat divider" 0.5 (Complex.norm h))
    [ 1.0; 1e6; 1e12 ]

let test_loop_filter_matches_behave () =
  (* the transistor-level RC network must agree with the behavioural
     Loop_filter impedance: drive the filter through a current source is
     awkward in AC (unit stimulus is a V source), so compare the R1-C1
     series + C2 network's voltage division from a source with series
     resistance instead *)
  let rser = 10e3 and c1 = 5e-12 and c2 = 0.5e-12 and r1 = 4e3 in
  let net = Netlist.create () in
  Netlist.vsource net "Vin" "in" "0" (Source.Dc 0.0);
  Netlist.resistor net "Rs" "in" "vc" rser;
  Netlist.resistor net "R1" "vc" "mid" r1;
  Netlist.capacitor net "C1" "mid" "0" c1;
  Netlist.capacitor net "C2" "vc" "0" c2;
  let ac = linearised net in
  let filter = { Repro_behave.Loop_filter.c1; c2; r1 } in
  List.iter
    (fun f ->
      let w = 2.0 *. Float.pi *. f in
      let z = Repro_behave.Loop_filter.impedance filter w in
      (* voltage divider: vc/vin = Z / (Z + Rs) *)
      let expected = Complex.div z (Complex.add z { re = rser; im = 0.0 }) in
      let h = S.Ac.transfer ac ~input:"Vin" ~output:"vc" f in
      if Complex.norm (Complex.sub h expected) > 1e-3 *. Complex.norm expected
      then Alcotest.failf "filter impedance mismatch at %g Hz" f)
    [ 1e5; 1e6; 1e7; 1e8; 1e9 ]

let test_common_source_gain_sign () =
  (* inverting amplifier: low-frequency phase ~ 180 degrees, |H| = gm RL *)
  let net = C.Topologies.common_source ~w:20e-6 ~l:0.5e-6 ~rload:5e3 0.48 in
  let ac = linearised net in
  let h = S.Ac.transfer ac ~input:"Vb" ~output:"out" 100.0 in
  Alcotest.(check bool) "gain above 1" true (Complex.norm h > 2.0);
  Alcotest.(check bool) "inverting" true (h.Complex.re < 0.0)

let test_bode_summary_extraction () =
  let net = C.Topologies.common_source ~w:20e-6 ~l:0.5e-6 ~rload:5e3 0.48 in
  let ac = linearised net in
  let sweep =
    S.Ac.logsweep ac ~input:"Vb" ~output:"out" ~f_start:1e3 ~f_stop:100e9
      ~points:120
  in
  let b = S.Ac.bode_summary sweep in
  Alcotest.(check bool) "positive dc gain" true (b.S.Ac.dc_gain_db > 6.0);
  (match b.S.Ac.unity_gain_freq with
  | Some f -> Alcotest.(check bool) "ugf in range" true (f > 1e8 && f < 50e9)
  | None -> Alcotest.fail "expected a unity crossing");
  (match b.S.Ac.bandwidth_3db with
  | Some f -> Alcotest.(check bool) "bandwidth below ugf" true
                (f < Option.get b.S.Ac.unity_gain_freq)
  | None -> Alcotest.fail "expected a -3 dB point");
  match b.S.Ac.phase_margin_deg with
  | Some pm -> Alcotest.(check bool) "sane phase margin" true (pm > 0.0 && pm < 120.0)
  | None -> Alcotest.fail "expected a phase margin"

let test_bode_summary_empty () =
  Alcotest.(check bool) "empty sweep rejected" true
    (try ignore (S.Ac.bode_summary [||]); false with Invalid_argument _ -> true)

let test_sweep_shapes () =
  let ac =
    linearised (C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:(Source.Dc 0.0))
  in
  let sweep =
    S.Ac.logsweep ac ~input:"Vin" ~output:"out" ~f_start:1e2 ~f_stop:1e8
      ~points:30
  in
  Alcotest.(check int) "point count" 30 (Array.length sweep);
  (* monotone magnitude rolloff for a first-order lowpass *)
  for i = 0 to Array.length sweep - 2 do
    if sweep.(i + 1).S.Ac.magnitude_db > sweep.(i).S.Ac.magnitude_db +. 1e-9
    then Alcotest.fail "lowpass magnitude not monotone"
  done

(* every AC point is factorised under the Newton kernel's policy, even
   on a circuit as small as the RC low-pass (n = 3): one symbolic
   analysis for the sweep, then one numeric refactorisation per point *)
let test_sweep_factorisation_counts () =
  let ac =
    linearised (C.Topologies.rc_lowpass ~r:1e3 ~c:1e-9 ~vin:(Source.Dc 0.0))
  in
  Repro_linalg.Sparse_lu.clear_cache ();
  let counter = Repro_engine.Telemetry.counter in
  let delta name base = counter name - base in
  let sym = counter "solver.symbolic"
  and refact = counter "solver.refactorise"
  and fallback = counter "solver.refactorise_fallback" in
  ignore
    (S.Ac.logsweep ac ~input:"Vin" ~output:"out" ~f_start:1.0 ~f_stop:1e9
       ~points:30);
  Alcotest.(check int) "one symbolic analysis" 1 (delta "solver.symbolic" sym);
  Alcotest.(check int) "one refactorisation per later point" 29
    (delta "solver.refactorise" refact);
  Alcotest.(check int) "no fallback" 0
    (delta "solver.refactorise_fallback" fallback)

(* ---- OTA ---- *)

let test_ota_characterise () =
  match S.Ota_measure.characterise C.Topologies.ota_default with
  | Error f -> Alcotest.failf "OTA failed: %s" (S.Ota_measure.failure_to_string f)
  | Ok p ->
    Alcotest.(check bool) "high dc gain" true (p.S.Ota_measure.dc_gain_db > 50.0);
    Alcotest.(check bool) "gbw in MHz range" true
      (p.S.Ota_measure.gbw > 1e6 && p.S.Ota_measure.gbw < 1e9);
    Alcotest.(check bool) "positive margin" true
      (p.S.Ota_measure.phase_margin_deg > 0.0);
    Alcotest.(check bool) "sub-mW power" true
      (p.S.Ota_measure.power > 0.0 && p.S.Ota_measure.power < 5e-3)

let test_ota_gbw_tracks_cc () =
  (* GBW ~ gm1/Cc: doubling Cc should roughly halve the bandwidth *)
  let get cc =
    match
      S.Ota_measure.characterise
        { C.Topologies.ota_default with C.Topologies.cc }
    with
    | Ok p -> p.S.Ota_measure.gbw
    | Error f -> Alcotest.failf "OTA: %s" (S.Ota_measure.failure_to_string f)
  in
  let g1 = get 1.5e-12 and g2 = get 3.0e-12 in
  let ratio = g1 /. g2 in
  Alcotest.(check bool)
    (Printf.sprintf "gbw ratio ~2 (got %.2f)" ratio)
    true
    (ratio > 1.5 && ratio < 2.6)

let test_ota_power_tracks_ibias () =
  let get ibias =
    match
      S.Ota_measure.characterise
        { C.Topologies.ota_default with C.Topologies.ibias }
    with
    | Ok p -> p.S.Ota_measure.power
    | Error f -> Alcotest.failf "OTA: %s" (S.Ota_measure.failure_to_string f)
  in
  Alcotest.(check bool) "more bias, more power" true (get 100e-6 > get 25e-6)

let test_ota_vector_roundtrip () =
  let p = C.Topologies.ota_default in
  let v = C.Topologies.ota_vector_of_params p in
  Alcotest.(check int) "6 designables" 6 (Array.length v);
  Alcotest.(check bool) "roundtrip" true
    (C.Topologies.ota_params_of_vector v = p);
  Alcotest.(check bool) "wrong arity rejected" true
    (try ignore (C.Topologies.ota_params_of_vector [| 1.0 |]); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "RC transfer exact" `Quick test_rc_transfer_exact;
    Alcotest.test_case "RC -3dB and phase" `Quick test_rc_3db_and_phase;
    Alcotest.test_case "flat divider" `Quick test_divider_flat;
    Alcotest.test_case "loop filter vs behavioural" `Quick test_loop_filter_matches_behave;
    Alcotest.test_case "CS amp gain sign" `Quick test_common_source_gain_sign;
    Alcotest.test_case "bode summary" `Quick test_bode_summary_extraction;
    Alcotest.test_case "bode empty" `Quick test_bode_summary_empty;
    Alcotest.test_case "sweep shape" `Quick test_sweep_shapes;
    Alcotest.test_case "sweep factorisation counts" `Quick
      test_sweep_factorisation_counts;
    Alcotest.test_case "OTA characterise" `Quick test_ota_characterise;
    Alcotest.test_case "OTA gbw vs Cc" `Quick test_ota_gbw_tracks_cc;
    Alcotest.test_case "OTA power vs ibias" `Quick test_ota_power_tracks_ibias;
    Alcotest.test_case "OTA vector roundtrip" `Quick test_ota_vector_roundtrip;
  ]
