module Vec = Repro_linalg.Vec
module Matrix = Repro_linalg.Matrix
module Lu = Repro_linalg.Lu
module Sparse = Repro_linalg.Sparse
module Sparse_lu = Repro_linalg.Sparse_lu

(* ---- CSR basics --------------------------------------------------- *)

let test_builder_duplicates () =
  let b = Sparse.Builder.create ~n:3 in
  Sparse.Builder.add b 0 0 1.0;
  Sparse.Builder.add b 0 0 2.0;
  Sparse.Builder.add b 2 1 (-1.0);
  Sparse.Builder.add b 1 2 4.0;
  let s = Sparse.Builder.build b in
  Alcotest.(check int) "nnz sums duplicates" 3 (Sparse.nnz s);
  Alcotest.(check (float 1e-12)) "dup summed" 3.0 (Sparse.get s 0 0);
  Alcotest.(check (float 1e-12)) "entry" (-1.0) (Sparse.get s 2 1);
  Alcotest.(check (float 1e-12)) "absent" 0.0 (Sparse.get s 1 1);
  Alcotest.(check int) "absent index" (-1) (Sparse.index s 1 1)

let test_like_shares_pattern () =
  let b = Sparse.Builder.create ~n:2 in
  Sparse.Builder.add b 0 0 1.0;
  Sparse.Builder.add b 1 1 2.0;
  let s = Sparse.Builder.build b in
  let t = Sparse.like s in
  Alcotest.(check bool) "same pattern" true (Sparse.same_pattern s t);
  Alcotest.(check bool) "same fingerprint" true
    (Sparse.fingerprint s = Sparse.fingerprint t);
  Alcotest.(check (float 1e-12)) "values zeroed" 0.0 (Sparse.get t 0 0)

let test_roundtrip () =
  let m =
    Matrix.of_arrays
      [| [| 2.0; 0.0; 1.0 |]; [| 0.0; 3.0; 0.0 |]; [| -1.0; 0.0; 4.0 |] |]
  in
  let s = Sparse.of_matrix m in
  Alcotest.(check int) "nnz drops zeros" 5 (Sparse.nnz s);
  Alcotest.(check (array (array (float 1e-12)))) "roundtrip"
    (Matrix.to_arrays m)
    (Matrix.to_arrays (Sparse.to_matrix s));
  Alcotest.(check (array (float 1e-12))) "mul_vec"
    (Matrix.mul_vec m [| 1.0; 2.0; 3.0 |])
    (Sparse.mul_vec s [| 1.0; 2.0; 3.0 |])

(* ---- sparse LU vs dense LU ---------------------------------------- *)

let test_known_solve () =
  let m = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let _, num = Sparse_lu.factorise (Sparse.of_matrix m) in
  Alcotest.(check (array (float 1e-9))) "2x2 solve" [| 1.0; 3.0 |]
    (Sparse_lu.solve num [| 5.0; 10.0 |])

let test_pivoting () =
  let m = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let _, num = Sparse_lu.factorise (Sparse.of_matrix ~keep_zeros:true m) in
  Alcotest.(check (array (float 1e-12))) "pivot solve" [| 3.0; 2.0 |]
    (Sparse_lu.solve num [| 2.0; 3.0 |])

let test_singular_agreement () =
  (* structurally singular inputs raise Singular on both paths *)
  let cases =
    [
      ("rank-deficient", [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]);
      ( "zero column",
        [| [| 1.0; 0.0; 1.0 |]; [| 2.0; 0.0; 3.0 |]; [| 0.5; 0.0; 7.0 |] |] );
      ( "duplicate rows",
        [| [| 1.0; 2.0; 3.0 |]; [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] );
    ]
  in
  List.iter
    (fun (name, rows) ->
      let m = Matrix.of_arrays rows in
      let dense =
        try
          ignore (Lu.factorise m);
          None
        with Lu.Singular k -> Some k
      in
      let sparse =
        try
          ignore (Sparse_lu.factorise (Sparse.of_matrix ~keep_zeros:true m));
          None
        with Sparse_lu.Singular k -> Some k
      in
      Alcotest.(check bool) (name ^ ": both singular") true
        (dense <> None && sparse <> None);
      Alcotest.(check (option int)) (name ^ ": same column diagnostic") dense
        sparse)
    cases

(* random sparse diagonally-dominant (SPD-ish) systems: the sparse and
   dense paths agree on solution and determinant sign *)
let prop_sparse_vs_dense_random =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 2 14) (fun n ->
          let* entries =
            array_size (return (n * n)) (float_range (-10.0) 10.0)
          in
          let* mask = array_size (return (n * n)) (float_range 0.0 1.0) in
          let* rhs = array_size (return n) (float_range (-10.0) 10.0) in
          return (n, entries, mask, rhs)))
  in
  QCheck.Test.make ~name:"sparse LU matches dense LU on random systems"
    ~count:300 (QCheck.make gen) (fun (n, entries, mask, rhs) ->
      let m = Matrix.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          (* ~60% structural zeros off the diagonal *)
          if i = j || mask.((i * n) + j) < 0.4 then
            Matrix.set m i j entries.((i * n) + j)
        done;
        Matrix.add_to m i i (50.0 *. float_of_int n)
      done;
      let s = Sparse.of_matrix m in
      let xd = Lu.solve m rhs in
      let _, num = Sparse_lu.factorise s in
      let xs = Sparse_lu.solve num rhs in
      let dd = Lu.det m and ds = Sparse_lu.det num in
      Vec.max_abs_diff xd xs < 1e-8 *. (1.0 +. Vec.norm_inf xd)
      && Float.abs (dd -. ds) <= 1e-9 *. (1.0 +. Float.abs dd)
      && (dd = 0.0 || Float.abs ((dd /. ds) -. 1.0) < 1e-9))

(* MNA-stamped systems: assemble the ring-VCO Jacobian both densely and
   sparsely at a random bias point — solutions must agree tightly *)
let prop_sparse_vs_dense_mna =
  let gen =
    QCheck.Gen.(
      let* vctl = float_range 0.2 1.0 in
      let* bias = array_size (return 64) (float_range 0.0 1.2) in
      return (vctl, bias))
  in
  QCheck.Test.make ~name:"sparse LU matches dense LU on MNA stamps" ~count:25
    (QCheck.make gen) (fun (vctl, bias) ->
      let net =
        Repro_circuit.Topologies.ring_vco ~vctl
          Repro_circuit.Topologies.vco_default
      in
      let c = Repro_spice.Mna.compile net in
      let n = Repro_spice.Mna.size c in
      let x = Array.init n (fun i -> bias.(i mod Array.length bias)) in
      let jac = Matrix.create n n in
      let residual = Vec.create n in
      Repro_spice.Mna.assemble c ~x ~time:0.0 ~gmin:1e-12 ~source_scale:1.0
        ~cap_mode:Repro_spice.Mna.Dc ~jacobian:jac ~residual;
      let rhs = Array.map (fun r -> -.r) residual in
      let xd = Lu.solve jac rhs in
      let _, num = Sparse_lu.factorise (Sparse.of_matrix ~keep_zeros:true jac) in
      let xs = Sparse_lu.solve num rhs in
      Vec.max_abs_diff xd xs < 1e-7 *. (1.0 +. Vec.norm_inf xd))

(* refactorisation along a frozen pattern must reproduce a fresh
   factorisation of the same values *)
let test_refactorise_matches () =
  let m =
    Matrix.of_arrays
      [|
        [| 4.0; -1.0; 0.0; 0.5 |];
        [| -1.0; 5.0; -2.0; 0.0 |];
        [| 0.0; -2.0; 6.0; -1.0 |];
        [| 0.5; 0.0; -1.0; 3.0 |];
      |]
  in
  let s = Sparse.of_matrix m in
  let sym, num0 = Sparse_lu.factorise s in
  let b = [| 1.0; -2.0; 3.0; 0.25 |] in
  let x0 = Sparse_lu.solve num0 b in
  (* perturb the values, keep the pattern *)
  let s2 = Sparse.like s in
  Array.blit (Sparse.values s) 0 (Sparse.values s2) 0 (Sparse.nnz s);
  let vals = Sparse.values s2 in
  Array.iteri (fun i v -> vals.(i) <- v *. 1.1) vals;
  let num = Sparse_lu.create_numeric sym in
  Sparse_lu.refactorise num s2;
  let x1 = Sparse_lu.solve num b in
  let xd = Lu.solve (Sparse.to_matrix s2) b in
  Alcotest.(check bool) "refactorised solve matches dense" true
    (Vec.max_abs_diff x1 xd < 1e-9);
  (* and refactorising back to the original values recovers x0 *)
  Array.iteri (fun i v -> vals.(i) <- v /. 1.1) vals;
  Sparse_lu.refactorise num s2;
  let x2 = Sparse_lu.solve num b in
  Alcotest.(check bool) "round-trip refactorise" true
    (Vec.max_abs_diff x0 x2 < 1e-9)

(* mis-scaled singularity: a resistor island disconnected from ground
   with huge resistances used to slip past the absolute 1e-300 pivot
   cutoff (cancellation leaves ~1e-34 remnants) and produce garbage;
   the relative threshold reports Singular on both paths *)
let test_mis_scaled_singularity () =
  let net = Repro_circuit.Netlist.create () in
  Repro_circuit.Netlist.vsource net "Vdd" "vdd" "0"
    (Repro_circuit.Source.Dc 1.0);
  Repro_circuit.Netlist.resistor net "Rload" "vdd" "out" 1e3;
  Repro_circuit.Netlist.resistor net "Rg" "out" "0" 1e3;
  (* floating triangle, deliberately mis-scaled: 1e18-ohm resistors *)
  Repro_circuit.Netlist.resistor net "Ra" "fa" "fb" 1.0e18;
  Repro_circuit.Netlist.resistor net "Rb" "fb" "fc" 2.0e18;
  Repro_circuit.Netlist.resistor net "Rc" "fc" "fa" 3.0e18;
  let c = Repro_spice.Mna.compile net in
  let n = Repro_spice.Mna.size c in
  let x = Vec.create n in
  let jac = Matrix.create n n in
  let residual = Vec.create n in
  (* gmin 0: nothing may paper over the island *)
  Repro_spice.Mna.assemble c ~x ~time:0.0 ~gmin:0.0 ~source_scale:1.0
    ~cap_mode:Repro_spice.Mna.Dc ~jacobian:jac ~residual;
  Alcotest.(check bool) "dense reports Singular" true
    (try
       ignore (Lu.factorise jac);
       false
     with Lu.Singular _ -> true);
  Alcotest.(check bool) "sparse reports Singular" true
    (try
       ignore (Sparse_lu.factorise (Sparse.of_matrix ~keep_zeros:true jac));
       false
     with Sparse_lu.Singular _ -> true)

(* well-conditioned but uniformly tiny systems must still solve: the
   relative threshold must not reintroduce absolute-scale failures *)
let test_tiny_scale_solves () =
  let m =
    Matrix.of_arrays
      [| [| 2e-200; 1e-200 |]; [| 1e-200; 3e-200 |] |]
  in
  let x = Lu.solve m [| 5e-200; 10e-200 |] in
  Alcotest.(check (array (float 1e-9))) "dense tiny-scale solve"
    [| 1.0; 3.0 |] x;
  let _, num = Sparse_lu.factorise (Sparse.of_matrix m) in
  Alcotest.(check (array (float 1e-9))) "sparse tiny-scale solve"
    [| 1.0; 3.0 |]
    (Sparse_lu.solve num [| 5e-200; 10e-200 |])

(* ---- symbolic registry -------------------------------------------- *)

let test_registry_reuse () =
  Sparse_lu.clear_cache ();
  let b = Sparse.Builder.create ~n:3 in
  Sparse.Builder.add b 0 0 4.0;
  Sparse.Builder.add b 1 1 5.0;
  Sparse.Builder.add b 2 2 6.0;
  Sparse.Builder.add b 0 2 1.0;
  Sparse.Builder.add b 2 0 1.0;
  let s = Sparse.Builder.build b in
  Alcotest.(check bool) "cold miss" true (Sparse_lu.find_symbolic s = None);
  let sym, _ = Sparse_lu.factorise s in
  Sparse_lu.store_symbolic s sym;
  let t = Sparse.like s in
  Array.blit (Sparse.values s) 0 (Sparse.values t) 0 (Sparse.nnz s);
  Alcotest.(check bool) "hit on same-pattern copy" true
    (Sparse_lu.find_symbolic t = Some sym);
  let hits, misses = Sparse_lu.cache_stats () in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "one miss" 1 misses;
  Sparse_lu.clear_cache ()

(* symbolic analysis runs once across Monte-Carlo-style numeric solves
   of structurally identical netlists, observable via the telemetry
   counters the solver layer maintains *)
let test_mc_symbolic_runs_once () =
  Sparse_lu.clear_cache ();
  let base = Repro_engine.Telemetry.counter "solver.symbolic" in
  let base_re = Repro_engine.Telemetry.counter "solver.refactorise" in
  let net =
    Repro_circuit.Topologies.ring_vco ~vctl:0.5
      Repro_circuit.Topologies.vco_default
  in
  let prng = Repro_util.Prng.create 77 in
  let solves = 100 in
  for _ = 1 to solves do
    let sampled =
      Repro_circuit.Process.sample Repro_circuit.Process.default
        (Repro_util.Prng.split prng) net
    in
    let c = Repro_spice.Mna.compile sampled in
    match Repro_spice.Dcop.solve_result c with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "dcop failed: %s" (Repro_spice.Solver_error.to_string e)
  done;
  let symbolic = Repro_engine.Telemetry.counter "solver.symbolic" - base in
  let refact = Repro_engine.Telemetry.counter "solver.refactorise" - base_re in
  Alcotest.(check int) "symbolic analysis ran once" 1 symbolic;
  Alcotest.(check bool)
    (Printf.sprintf "refactorisations dominate (%d across %d solves)" refact
       solves)
    true
    (refact >= solves);
  Sparse_lu.clear_cache ()

(* Domains released together onto one cold pattern: find-or-analyse is
   atomic, so the symbolic analysis runs once per round and the other
   domains refactorise on the stored pivot order.  Each domain solves its
   own compiled, process-sampled ring VCO, as Monte-Carlo trials do. *)
let test_mc_symbolic_once_across_domains () =
  let domains = 3 and rounds = 20 in
  let net =
    Repro_circuit.Topologies.ring_vco ~vctl:0.5
      Repro_circuit.Topologies.vco_default
  in
  let prng = Repro_util.Prng.create 2009 in
  for round = 1 to rounds do
    let circuits =
      List.init domains (fun _ ->
          Repro_spice.Mna.compile
            (Repro_circuit.Process.sample Repro_circuit.Process.default
               (Repro_util.Prng.split prng) net))
    in
    Sparse_lu.clear_cache ();
    let base = Repro_engine.Telemetry.counter "solver.symbolic" in
    let ready = Atomic.make 0 in
    let spawned =
      List.map
        (fun c ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < domains do
                Domain.cpu_relax ()
              done;
              Result.is_ok (Repro_spice.Dcop.solve_result c)))
        circuits
    in
    let solved = List.for_all Fun.id (List.map Domain.join spawned) in
    Alcotest.(check bool) (Printf.sprintf "round %d solved" round) true solved;
    Alcotest.(check int)
      (Printf.sprintf "round %d: one symbolic analysis" round)
      1
      (Repro_engine.Telemetry.counter "solver.symbolic" - base)
  done;
  Sparse_lu.clear_cache ()

let suite =
  [
    Alcotest.test_case "builder duplicates" `Quick test_builder_duplicates;
    Alcotest.test_case "like shares pattern" `Quick test_like_shares_pattern;
    Alcotest.test_case "dense roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "known solve" `Quick test_known_solve;
    Alcotest.test_case "pivoting" `Quick test_pivoting;
    Alcotest.test_case "singular agreement" `Quick test_singular_agreement;
    Alcotest.test_case "refactorise matches" `Quick test_refactorise_matches;
    Alcotest.test_case "mis-scaled singularity" `Quick
      test_mis_scaled_singularity;
    Alcotest.test_case "tiny-scale solves" `Quick test_tiny_scale_solves;
    Alcotest.test_case "symbolic registry" `Quick test_registry_reuse;
    Alcotest.test_case "MC symbolic runs once" `Quick
      test_mc_symbolic_runs_once;
    QCheck_alcotest.to_alcotest prop_sparse_vs_dense_random;
    QCheck_alcotest.to_alcotest prop_sparse_vs_dense_mna;
    Alcotest.test_case "MC symbolic runs once across domains" `Quick
      test_mc_symbolic_once_across_domains;
  ]
