module Mosfet = Repro_circuit.Mosfet

(* the one copy of the device law, which the Newton iteration runs *)
let eval = Repro_spice.Mna.mos_eval

let nominal = (0.0, 1.0) (* vth_shift, kp_scale *)

let eval_n ?(m = Mosfet.nmos_012) ?(w = 10e-6) ?(l = 0.5e-6) vgs vds =
  let vth_shift, kp_scale = nominal in
  eval m ~w ~l ~vth_shift ~kp_scale ~vgs ~vds

let test_cutoff_current_small () =
  let r = eval_n 0.0 1.0 in
  Alcotest.(check bool) "cutoff current tiny" true (r.Mosfet.ids < 1e-7);
  Alcotest.(check bool) "cutoff current positive" true (r.Mosfet.ids >= 0.0)

let test_current_increases_with_vgs () =
  let prev = ref (-1.0) in
  List.iter
    (fun vgs ->
      let r = eval_n vgs 1.2 in
      if r.Mosfet.ids <= !prev then
        Alcotest.failf "ids not increasing at vgs=%g" vgs;
      prev := r.Mosfet.ids)
    [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]

let test_current_increases_with_vds () =
  let prev = ref (-1.0) in
  List.iter
    (fun vds ->
      let r = eval_n 1.0 vds in
      if r.Mosfet.ids < !prev then Alcotest.failf "ids decreasing at vds=%g" vds;
      prev := r.Mosfet.ids)
    [ 0.05; 0.1; 0.3; 0.5; 0.8; 1.2 ]

let test_saturation_clm_slope () =
  (* beyond vdsat the only vds dependence is channel-length modulation *)
  let r1 = eval_n 0.8 1.0 in
  let r2 = eval_n 0.8 1.2 in
  let slope = (r2.Mosfet.ids -. r1.Mosfet.ids) /. 0.2 in
  Alcotest.(check bool) "small positive saturation slope" true
    (slope > 0.0 && slope < 0.2 *. r1.Mosfet.ids /. 0.2)

let test_width_scaling () =
  let r1 = eval_n ~w:10e-6 1.0 1.2 in
  let r2 = eval_n ~w:20e-6 1.0 1.2 in
  Alcotest.(check (float 1e-9)) "ids scales with W"
    (2.0 *. r1.Mosfet.ids) r2.Mosfet.ids

let test_vth_shift_slows_device () =
  let fast = eval Mosfet.nmos_012 ~w:10e-6 ~l:0.5e-6 ~vth_shift:(-0.05)
      ~kp_scale:1.0 ~vgs:0.8 ~vds:1.2 in
  let slow = eval Mosfet.nmos_012 ~w:10e-6 ~l:0.5e-6 ~vth_shift:0.05
      ~kp_scale:1.0 ~vgs:0.8 ~vds:1.2 in
  Alcotest.(check bool) "vth shift ordering" true
    (fast.Mosfet.ids > slow.Mosfet.ids)

let test_kp_scale_proportional () =
  let a = eval Mosfet.nmos_012 ~w:10e-6 ~l:0.5e-6 ~vth_shift:0.0
      ~kp_scale:1.0 ~vgs:1.0 ~vds:1.2 in
  let b = eval Mosfet.nmos_012 ~w:10e-6 ~l:0.5e-6 ~vth_shift:0.0
      ~kp_scale:1.1 ~vgs:1.0 ~vds:1.2 in
  Alcotest.(check (float 1e-6)) "kp scaling" (1.1 *. a.Mosfet.ids) b.Mosfet.ids

let fd_check ~vgs ~vds =
  (* analytic gm/gds must match central finite differences *)
  let h = 1e-7 in
  let r = eval_n vgs vds in
  let rp = eval_n (vgs +. h) vds and rm = eval_n (vgs -. h) vds in
  let gm_fd = (rp.Mosfet.ids -. rm.Mosfet.ids) /. (2.0 *. h) in
  let rp2 = eval_n vgs (vds +. h) and rm2 = eval_n vgs (vds -. h) in
  let gds_fd = (rp2.Mosfet.ids -. rm2.Mosfet.ids) /. (2.0 *. h) in
  let close a b =
    Float.abs (a -. b) <= 1e-4 *. (Float.max (Float.abs a) (Float.abs b) +. 1e-9)
  in
  if not (close r.Mosfet.gm gm_fd) then
    Alcotest.failf "gm mismatch at (%.2f, %.2f): analytic %g vs fd %g" vgs vds
      r.Mosfet.gm gm_fd;
  if not (close r.Mosfet.gds gds_fd) then
    Alcotest.failf "gds mismatch at (%.2f, %.2f): analytic %g vs fd %g" vgs vds
      r.Mosfet.gds gds_fd

let test_derivatives_match_fd () =
  (* sweep both regions; avoid the exact vds = vdsat corner where the
     model is only C1 *)
  List.iter
    (fun (vgs, vds) -> fd_check ~vgs ~vds)
    [ (0.3, 0.6); (0.5, 0.05); (0.7, 0.1); (0.8, 1.1); (1.0, 0.2); (1.2, 1.2);
      (0.1, 0.5); (0.45, 0.9) ]

let test_continuity_across_vdsat () =
  (* walk vds finely through the triode/saturation blend: no jumps *)
  let prev = ref None in
  let steps = 400 in
  for k = 0 to steps do
    let vds = 1.4 *. float_of_int k /. float_of_int steps in
    let r = eval_n 0.9 vds in
    (match !prev with
    | Some (ids_prev, vds_prev) ->
      let dv = vds -. vds_prev in
      if Float.abs (r.Mosfet.ids -. ids_prev) > (0.05 *. Float.abs ids_prev) +. 2e-5
      then
        Alcotest.failf "current jump at vds=%g (step %g)" vds dv
    | None -> ());
    prev := Some (r.Mosfet.ids, vds)
  done

let test_capacitances_scale () =
  let c1 = Mosfet.capacitances Mosfet.nmos_012 ~w:10e-6 ~l:0.2e-6 in
  let c2 = Mosfet.capacitances Mosfet.nmos_012 ~w:20e-6 ~l:0.2e-6 in
  Alcotest.(check bool) "cgs positive" true (c1.Mosfet.cgs > 0.0);
  Alcotest.(check (float 1e-20)) "cdb scales with W" (2.0 *. c1.Mosfet.cdb)
    c2.Mosfet.cdb;
  Alcotest.(check bool) "cgs grows with W" true (c2.Mosfet.cgs > c1.Mosfet.cgs)

let test_pelgrom_scaling () =
  let s1 = Mosfet.sigma_vth Mosfet.nmos_012 ~w:10e-6 ~l:0.1e-6 in
  let s2 = Mosfet.sigma_vth Mosfet.nmos_012 ~w:40e-6 ~l:0.1e-6 in
  Alcotest.(check (float 1e-9)) "sigma halves when area x4" (s1 /. 2.0) s2;
  let k1 = Mosfet.sigma_kp_rel Mosfet.nmos_012 ~w:10e-6 ~l:0.1e-6 in
  Alcotest.(check bool) "kp mismatch positive and small" true
    (k1 > 0.0 && k1 < 0.2)

let test_pmos_parameters () =
  Alcotest.(check bool) "pmos weaker" true
    (Mosfet.pmos_012.Mosfet.kp < Mosfet.nmos_012.Mosfet.kp);
  Alcotest.(check bool) "pmos polarity" true
    (Mosfet.pmos_012.Mosfet.polarity = Mosfet.Pmos)

let prop_ids_nonnegative =
  QCheck.Test.make ~name:"ids >= 0 over the bias box" ~count:500
    QCheck.(pair (float_range (-0.5) 1.5) (float_range 0.0 1.5))
    (fun (vgs, vds) ->
      let r = eval_n vgs vds in
      r.Mosfet.ids >= 0.0 && Float.is_finite r.Mosfet.ids
      && Float.is_finite r.Mosfet.gm && Float.is_finite r.Mosfet.gds)

let prop_gm_nonnegative =
  QCheck.Test.make ~name:"gm >= 0 (monotone in vgs)" ~count:300
    QCheck.(pair (float_range (-0.2) 1.4) (float_range 0.01 1.4))
    (fun (vgs, vds) -> (eval_n vgs vds).Mosfet.gm >= -1e-12)

let suite =
  [
    Alcotest.test_case "cutoff current" `Quick test_cutoff_current_small;
    Alcotest.test_case "monotone in vgs" `Quick test_current_increases_with_vgs;
    Alcotest.test_case "monotone in vds" `Quick test_current_increases_with_vds;
    Alcotest.test_case "saturation CLM slope" `Quick test_saturation_clm_slope;
    Alcotest.test_case "width scaling" `Quick test_width_scaling;
    Alcotest.test_case "vth shift ordering" `Quick test_vth_shift_slows_device;
    Alcotest.test_case "kp scaling" `Quick test_kp_scale_proportional;
    Alcotest.test_case "analytic derivatives vs FD" `Quick test_derivatives_match_fd;
    Alcotest.test_case "continuity across vdsat" `Quick test_continuity_across_vdsat;
    Alcotest.test_case "capacitance scaling" `Quick test_capacitances_scale;
    Alcotest.test_case "Pelgrom scaling" `Quick test_pelgrom_scaling;
    Alcotest.test_case "pmos parameters" `Quick test_pmos_parameters;
    QCheck_alcotest.to_alcotest prop_ids_nonnegative;
    QCheck_alcotest.to_alcotest prop_gm_nonnegative;
  ]
