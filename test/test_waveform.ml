module W = Repro_spice.Waveform

let checkf msg = Alcotest.(check (float 1e-9)) msg

let ramp = W.create [| 0.0; 1.0; 2.0 |] [| 0.0; 1.0; 2.0 |]

let sine n cycles =
  let times = Array.init n (fun i -> float_of_int i /. float_of_int (n - 1)) in
  let values =
    Array.map (fun t -> sin (2.0 *. Float.pi *. cycles *. t)) times
  in
  W.create times values

let test_create_validation () =
  Alcotest.(check bool) "length mismatch" true
    (try ignore (W.create [| 0.0 |] [| 1.0; 2.0 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty" true
    (try ignore (W.create [||] [||]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "decreasing times" true
    (try ignore (W.create [| 1.0; 0.0 |] [| 0.0; 0.0 |]); false
     with Invalid_argument _ -> true)

let test_value_at () =
  checkf "interior" 0.5 (W.value_at ramp 0.5);
  checkf "clamped low" 0.0 (W.value_at ramp (-1.0));
  checkf "clamped high" 2.0 (W.value_at ramp 5.0);
  checkf "exact sample" 1.0 (W.value_at ramp 1.0)

(* feed a recorded waveform to a window, one sample vector per sample *)
let windowed ?(level = 0.0) w ~t_start ~t_end =
  let win = W.Window.create ~t_start ~t_end ~level ~edges:[| 0 |] ~mean:0 in
  Array.iteri
    (fun i t -> W.Window.observe win t [| w.W.values.(i) |])
    w.W.times;
  win

let test_window () =
  let w = windowed ramp ~t_start:0.5 ~t_end:1.5 in
  (* one sample in the window: its own mean and both extremes *)
  checkf "one-sample mean" 1.0 (W.Window.mean w);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "one-sample extremes"
    (1.0, 1.0) (W.Window.extremes w);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let empty = windowed ramp ~t_start:5.0 ~t_end:6.0 in
  Alcotest.(check bool) "empty window raises" true
    (raises (fun () -> W.Window.mean empty));
  Alcotest.(check bool) "ends are inclusive" true
    (W.Window.extremes (windowed ramp ~t_start:1.0 ~t_end:2.0) = (1.0, 2.0));
  let w = windowed ramp ~t_start:0.0 ~t_end:2.0 in
  Alcotest.(check bool) "time going backwards raises" true
    (raises (fun () -> W.Window.observe w 1.5 [| 0.0 |]));
  (* a negative channel is a grounded node *)
  let g =
    W.Window.create ~t_start:0.0 ~t_end:1.0 ~level:0.0 ~edges:[| -1 |]
      ~mean:(-1)
  in
  W.Window.observe g 0.0 [||];
  W.Window.observe g 1.0 [||];
  checkf "ground mean" 0.0 (W.Window.mean g)

let test_crossings_count () =
  let w = sine 2001 5.0 in
  let rising = W.crossings ~direction:W.Rising w ~level:0.0 in
  let falling = W.crossings ~direction:W.Falling w ~level:0.0 in
  let both = W.crossings ~direction:W.Either w ~level:0.0 in
  Alcotest.(check int) "rising zero crossings" 4 (Array.length rising);
  Alcotest.(check int) "falling zero crossings" 5 (Array.length falling);
  Alcotest.(check int) "either = sum" 9 (Array.length both)

let test_crossing_interpolation () =
  let w = W.create [| 0.0; 1.0 |] [| -1.0; 1.0 |] in
  let cs = W.crossings w ~level:0.0 in
  Alcotest.(check int) "one crossing" 1 (Array.length cs);
  checkf "interpolated time" 0.5 cs.(0);
  let cs2 = W.crossings w ~level:0.5 in
  checkf "off-centre level" 0.75 cs2.(0)

let test_frequency () =
  let w = sine 4001 10.0 in
  (match W.frequency w ~level:0.0 with
  | Some f -> Alcotest.(check (float 0.05)) "10 Hz sine" 10.0 f
  | None -> Alcotest.fail "no frequency measured");
  (* flat waveform has no frequency *)
  let flat = W.create [| 0.0; 1.0 |] [| 0.5; 0.5 |] in
  Alcotest.(check bool) "flat has none" true (W.frequency flat ~level:0.0 = None)

let test_periods_uniform () =
  let w = sine 4001 8.0 in
  let ps = W.periods w ~level:0.0 in
  Array.iter
    (fun p ->
      if Float.abs (p -. 0.125) > 1e-3 then Alcotest.failf "period %g" p)
    ps

let test_period_jitter_deterministic () =
  let w = sine 4001 8.0 in
  match W.period_jitter_rms w ~level:0.0 with
  | Some j -> Alcotest.(check bool) "clean sine tiny jitter" true (j < 1e-4)
  | None -> Alcotest.fail "expected jitter measurement"

let test_mean_window () =
  checkf "ramp mean" 1.0 (W.mean ramp);
  let const = W.create [| 0.0; 2.0 |] [| 3.0; 3.0 |] in
  checkf "const mean" 3.0 (W.mean const);
  let w = sine 20001 4.0 in
  Alcotest.(check (float 0.01)) "sine mean ~0" 0.0 (W.mean w);
  (* the window's mean is the array mean of the windowed samples *)
  let bits = Int64.bits_of_float in
  let inside = Array.map (fun t -> t >= 0.3 && t <= 0.8) w.W.times in
  let pick a =
    Array.of_list (List.filteri (fun i _ -> inside.(i)) (Array.to_list a))
  in
  let sub = W.create (pick w.W.times) (pick w.W.values) in
  Alcotest.(check int64) "window mean, bit for bit" (bits (W.mean sub))
    (bits (W.Window.mean (windowed w ~t_start:0.3 ~t_end:0.8)))

let test_mean_nonuniform_sampling () =
  (* trapezoidal mean must honour unequal time steps *)
  let w = W.create [| 0.0; 1.0; 10.0 |] [| 0.0; 0.0; 0.0 |] in
  checkf "zero either way" 0.0 (W.mean w);
  let w2 = W.create [| 0.0; 1.0; 2.0; 10.0 |] [| 1.0; 1.0; 0.0; 0.0 |] in
  (* area = 1*1 + 0.5*1 + 0 = 1.5 over span 10 *)
  checkf "weighted mean" 0.15 (W.mean w2)

let test_peak_to_peak () =
  checkf "ramp ptp" 2.0 (W.peak_to_peak ramp)

let test_slew () =
  let w = W.create [| 0.0; 1.0; 2.0 |] [| 0.0; 2.0; 0.0 |] in
  let win = windowed ~level:1.0 w ~t_start:0.0 ~t_end:2.0 in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "rising and falling slew"
    (2.0, 2.0) (W.Window.slews win 0);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "no crossing" (0.0, 0.0)
    (W.Window.slews (windowed ~level:5.0 w ~t_start:0.0 ~t_end:2.0) 0);
  Alcotest.(check int) "one rising crossing" 1 (W.Window.rising_crossings win)

let test_amplitude_ok () =
  let lo, hi = W.Window.extremes (windowed ramp ~t_start:0.0 ~t_end:2.0) in
  Alcotest.(check bool) "ramp covers [0.5, 1.5]" true (lo <= 0.5 && hi >= 1.5);
  Alcotest.(check bool) "ramp misses 3.0" false (lo <= 0.5 && hi >= 3.0);
  checkf "swing is the peak to peak" (W.peak_to_peak ramp) (hi -. lo)

let prop_crossings_sorted =
  QCheck.Test.make ~name:"crossing times increase" ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 4 60) (float_range (-2.0) 2.0))
    (fun values ->
      let times = Array.init (Array.length values) float_of_int in
      let w = W.create times values in
      let cs = W.crossings w ~level:0.0 in
      let ok = ref true in
      for i = 0 to Array.length cs - 2 do
        if cs.(i + 1) < cs.(i) then ok := false
      done;
      !ok)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 2 60) (float_range (-5.0) 5.0))
    (fun values ->
      let times = Array.init (Array.length values) float_of_int in
      let w = W.create times values in
      let lo, hi = Repro_util.Stats.min_max values in
      let m = W.mean w in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "value_at" `Quick test_value_at;
    Alcotest.test_case "window" `Quick test_window;
    Alcotest.test_case "crossing counts" `Quick test_crossings_count;
    Alcotest.test_case "crossing interpolation" `Quick test_crossing_interpolation;
    Alcotest.test_case "frequency" `Quick test_frequency;
    Alcotest.test_case "uniform periods" `Quick test_periods_uniform;
    Alcotest.test_case "deterministic jitter ~ 0" `Quick test_period_jitter_deterministic;
    Alcotest.test_case "mean over a window" `Quick test_mean_window;
    Alcotest.test_case "non-uniform mean" `Quick test_mean_nonuniform_sampling;
    Alcotest.test_case "peak to peak" `Quick test_peak_to_peak;
    Alcotest.test_case "slew at crossings" `Quick test_slew;
    Alcotest.test_case "amplitude check" `Quick test_amplitude_ok;
    QCheck_alcotest.to_alcotest prop_crossings_sorted;
    QCheck_alcotest.to_alcotest prop_mean_bounded;
  ]
