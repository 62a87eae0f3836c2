(* NSGA-II's variation operators and LHS sampling *)
module M = Repro_moo
module Prng = Repro_util.Prng
module Sampling = Repro_util.Sampling

(* ---- variation operators ---- *)

let test_sbx_bounds_and_mean () =
  let prng = Prng.create 3 in
  for _ = 1 to 500 do
    let x1 = Prng.range prng 0.0 1.0 and x2 = Prng.range prng 0.0 1.0 in
    let c1, c2 = M.Variation.sbx prng ~eta:15.0 ~lo:0.0 ~hi:1.0 x1 x2 in
    if c1 < 0.0 || c1 > 1.0 || c2 < 0.0 || c2 > 1.0 then
      Alcotest.fail "SBX child escaped the bounds"
  done;
  (* unclipped SBX preserves the parent sum (symmetric spread) *)
  let c1, c2 = M.Variation.sbx prng ~eta:15.0 ~lo:(-100.0) ~hi:100.0 2.0 4.0 in
  Alcotest.(check (float 1e-9)) "midpoint preserved" 6.0 (c1 +. c2)

let test_sbx_equal_parents () =
  let prng = Prng.create 4 in
  let c1, c2 = M.Variation.sbx prng ~eta:15.0 ~lo:0.0 ~hi:1.0 0.5 0.5 in
  Alcotest.(check (float 0.0)) "identical parents pass through c1" 0.5 c1;
  Alcotest.(check (float 0.0)) "identical parents pass through c2" 0.5 c2

let test_polynomial_mutation_bounds () =
  let prng = Prng.create 5 in
  for _ = 1 to 500 do
    let x = Prng.range prng (-2.0) 3.0 in
    let y = M.Variation.polynomial_mutation prng ~eta:20.0 ~lo:(-2.0) ~hi:3.0 x in
    if y < -2.0 || y > 3.0 then Alcotest.fail "mutation escaped the bounds"
  done

let test_mutate_in_place_rate () =
  (* mutation_prob 0 leaves vectors untouched *)
  let prng = Prng.create 6 in
  let x = [| 0.3; 0.7; 0.1 |] in
  let y = Array.copy x in
  M.Variation.mutate_in_place prng
    ~bounds:(Array.make 3 (0.0, 1.0))
    ~mutation_prob:0.0 ~eta_mutation:20.0 y;
  Alcotest.(check (array (float 0.0))) "no mutation at rate 0" x y

(* ---- LHS ---- *)

let test_lhs_stratified () =
  let prng = Prng.create 11 in
  let pts = Sampling.latin_hypercube prng ~dims:3 ~samples:16 in
  Alcotest.(check int) "sample count" 16 (Array.length pts);
  for d = 0 to 2 do
    let col = Array.map (fun p -> p.(d)) pts in
    Array.sort compare col;
    Array.iteri
      (fun i v ->
        let lo = float_of_int i /. 16.0 and hi = float_of_int (i + 1) /. 16.0 in
        if v < lo || v >= hi then
          Alcotest.failf "dimension %d not stratified at bin %d" d i)
      col
  done

let test_lhs_invalid () =
  Alcotest.(check bool) "zero samples rejected" true
    (try
       ignore (Sampling.latin_hypercube (Prng.create 1) ~dims:1 ~samples:0);
       false
     with Invalid_argument _ -> true)

let test_scale_to_box () =
  let pts = [| [| 0.0; 0.5 |]; [| 1.0; 0.25 |] |] in
  let scaled = Sampling.scale_to_box [| (10.0, 20.0); (-1.0, 1.0) |] pts in
  Alcotest.(check (float 1e-12)) "lo corner" 10.0 scaled.(0).(0);
  Alcotest.(check (float 1e-12)) "mid" 0.0 scaled.(0).(1);
  Alcotest.(check (float 1e-12)) "hi corner" 20.0 scaled.(1).(0)

let test_inverse_cdf () =
  List.iter
    (fun (p, expected) ->
      let v = Sampling.normal_inverse_cdf p in
      if Float.abs (v -. expected) > 2e-4 then
        Alcotest.failf "quantile(%g) = %g, expected %g" p v expected)
    [ (0.5, 0.0); (0.975, 1.95996); (0.84134, 1.0); (0.001, -3.09023) ];
  Alcotest.(check bool) "p=0 rejected" true
    (try ignore (Sampling.normal_inverse_cdf 0.0); false
     with Invalid_argument _ -> true)

let test_gaussian_lhs_moments () =
  let prng = Prng.create 13 in
  let pts = Sampling.gaussian_lhs prng ~dims:1 ~samples:2000 in
  let xs = Array.map (fun p -> p.(0)) pts in
  Alcotest.(check (float 0.01)) "mean" 0.0 (Repro_util.Stats.mean xs);
  Alcotest.(check (float 0.01)) "std" 1.0 (Repro_util.Stats.stddev xs)

let test_lhs_variance_reduction () =
  (* estimating E[x] of U(0,1): LHS beats plain MC at equal n *)
  let trials = 60 and n = 32 in
  let err_mc = ref 0.0 and err_lhs = ref 0.0 in
  let prng = Prng.create 17 in
  for _ = 1 to trials do
    let mc = Array.init n (fun _ -> Prng.uniform prng) in
    let lhs =
      Array.map
        (fun p -> p.(0))
        (Sampling.latin_hypercube prng ~dims:1 ~samples:n)
    in
    let e xs = Float.abs (Repro_util.Stats.mean xs -. 0.5) in
    err_mc := !err_mc +. e mc;
    err_lhs := !err_lhs +. e lhs
  done;
  Alcotest.(check bool)
    (Printf.sprintf "LHS error %.4f << MC error %.4f" !err_lhs !err_mc)
    true
    (!err_lhs < 0.5 *. !err_mc)

let suite =
  [
    Alcotest.test_case "sbx bounds and mean" `Quick test_sbx_bounds_and_mean;
    Alcotest.test_case "sbx equal parents" `Quick test_sbx_equal_parents;
    Alcotest.test_case "polynomial mutation bounds" `Quick test_polynomial_mutation_bounds;
    Alcotest.test_case "mutation rate 0" `Quick test_mutate_in_place_rate;
    Alcotest.test_case "LHS stratification" `Quick test_lhs_stratified;
    Alcotest.test_case "LHS invalid" `Quick test_lhs_invalid;
    Alcotest.test_case "scale to box" `Quick test_scale_to_box;
    Alcotest.test_case "inverse normal CDF" `Quick test_inverse_cdf;
    Alcotest.test_case "gaussian LHS moments" `Quick test_gaussian_lhs_moments;
    Alcotest.test_case "LHS variance reduction" `Quick test_lhs_variance_reduction;
  ]
