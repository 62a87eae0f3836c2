module Vec = Repro_linalg.Vec
module Matrix = Repro_linalg.Matrix
module Lu = Repro_linalg.Lu

let checkf msg = Alcotest.(check (float 1e-9)) msg

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  checkf "dot" 32.0 (Vec.dot x y);
  checkf "norm2" (sqrt 14.0) (Vec.norm2 x);
  checkf "norm_inf" 3.0 (Vec.norm_inf x);
  checkf "max_abs_diff" 3.0 (Vec.max_abs_diff x y);
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add x y);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub x y)

let test_matrix_basics () =
  let m = Matrix.create 2 3 in
  Alcotest.(check int) "rows" 2 (Matrix.rows m);
  Alcotest.(check int) "cols" 3 (Matrix.cols m);
  Matrix.set m 1 2 5.0;
  checkf "set/get" 5.0 (Matrix.get m 1 2);
  Matrix.add_to m 1 2 2.0;
  checkf "add_to" 7.0 (Matrix.get m 1 2);
  Matrix.clear m;
  checkf "clear" 0.0 (Matrix.get m 1 2)

let test_matrix_bad_index () =
  let m = Matrix.create 2 2 in
  Alcotest.(check bool) "oob raises" true
    (try ignore (Matrix.get m 2 0); false with Invalid_argument _ -> true)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  Alcotest.(check (array (array (float 1e-12)))) "mul"
    [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]
    (Matrix.to_arrays c)

let test_matrix_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "mul_vec" [| 5.0; 11.0 |]
    (Matrix.mul_vec a [| 1.0; 2.0 |])

let test_transpose () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check (array (array (float 1e-12)))) "transpose"
    [| [| 1.0; 4.0 |]; [| 2.0; 5.0 |]; [| 3.0; 6.0 |] |]
    (Matrix.to_arrays t)

let test_identity () =
  let i3 = Matrix.identity 3 in
  let a =
    Matrix.of_arrays
      [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 1.0; 3.0 |]; [| 4.0; 0.0; 1.0 |] |]
  in
  Alcotest.(check (array (array (float 1e-12)))) "I * A = A"
    (Matrix.to_arrays a)
    (Matrix.to_arrays (Matrix.mul i3 a))

let test_lu_solve_known () =
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve a [| 5.0; 10.0 |] in
  Alcotest.(check (array (float 1e-9))) "2x2 solve" [| 1.0; 3.0 |] x

let test_lu_needs_pivoting () =
  (* zero on the leading diagonal forces a row swap *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve a [| 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-12))) "pivot solve" [| 3.0; 2.0 |] x

let test_lu_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "singular raises" true
    (try ignore (Lu.solve a [| 1.0; 1.0 |]); false with Lu.Singular _ -> true);
  checkf "det of singular" 0.0 (Lu.det a)

let test_det () =
  let a = Matrix.of_arrays [| [| 3.0; 8.0 |]; [| 4.0; 6.0 |] |] in
  checkf "det 2x2" (-14.0) (Lu.det a);
  let b =
    Matrix.of_arrays
      [| [| 6.0; 1.0; 1.0 |]; [| 4.0; -2.0; 5.0 |]; [| 2.0; 8.0; 7.0 |] |]
  in
  Alcotest.(check (float 1e-6)) "det 3x3" (-306.0) (Lu.det b)

let test_inverse () =
  let a = Matrix.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Lu.inverse a in
  let prod = Matrix.mul a inv in
  let i = Matrix.identity 2 in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Matrix.norm_inf
       (Matrix.of_arrays
          (Array.map2 (Array.map2 ( -. )) (Matrix.to_arrays prod)
             (Matrix.to_arrays i)))
    < 1e-12)

let test_condition () =
  Alcotest.(check bool) "identity well-conditioned" true
    (Lu.condition_estimate (Matrix.identity 4) = 1.0);
  let sing = Matrix.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.(check bool) "singular condition infinite" true
    (Lu.condition_estimate sing = infinity)

(* property: LU solves random diagonally-dominant systems accurately *)
let prop_lu_random_solve =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 8) (fun n ->
          let* entries =
            array_size (return (n * n)) (float_range (-10.0) 10.0)
          in
          let* rhs = array_size (return n) (float_range (-10.0) 10.0) in
          return (n, entries, rhs)))
  in
  QCheck.Test.make ~name:"LU solves random dominant systems" ~count:200
    (QCheck.make gen) (fun (n, entries, rhs) ->
      let m = Matrix.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Matrix.set m i j entries.((i * n) + j)
        done;
        (* force diagonal dominance so the system is well-posed *)
        Matrix.add_to m i i (50.0 *. float_of_int n)
      done;
      let x = Lu.solve m rhs in
      let r = Vec.sub (Matrix.mul_vec m x) rhs in
      Vec.norm_inf r < 1e-8)

let prop_det_transpose =
  QCheck.Test.make ~name:"det(A) = det(A^T)" ~count:100
    QCheck.(array_of_size (QCheck.Gen.return 9) (float_range (-5.0) 5.0))
    (fun entries ->
      let m = Matrix.create 3 3 in
      Array.iteri (fun k v -> Matrix.set m (k / 3) (k mod 3) v) entries;
      let d1 = Lu.det m and d2 = Lu.det (Matrix.transpose m) in
      Float.abs (d1 -. d2) <= 1e-9 *. (1.0 +. Float.abs d1))

let suite =
  [
    Alcotest.test_case "vector ops" `Quick test_vec_ops;
    Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
    Alcotest.test_case "matrix bad index" `Quick test_matrix_bad_index;
    Alcotest.test_case "matrix mul" `Quick test_matrix_mul;
    Alcotest.test_case "matrix mul_vec" `Quick test_matrix_mul_vec;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "lu known solve" `Quick test_lu_solve_known;
    Alcotest.test_case "lu pivoting" `Quick test_lu_needs_pivoting;
    Alcotest.test_case "lu singular" `Quick test_lu_singular;
    Alcotest.test_case "determinant" `Quick test_det;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "condition estimate" `Quick test_condition;
    QCheck_alcotest.to_alcotest prop_lu_random_solve;
    QCheck_alcotest.to_alcotest prop_det_transpose;
  ]
