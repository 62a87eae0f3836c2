(* Tests of the benchmark's own code: hypervolume normalisation, the
   percentile helper, metric names, the span recorder's self time and
   the result-line writer. *)

module Hv = Perfbench.Hv
module Sample = Perfbench.Sample
module Spans = Perfbench.Spans
module Report = Perfbench.Report
module J = Repro_serve.Json

let close_to eps = Alcotest.float eps

(* ---- hypervolume ---------------------------------------------------- *)

let hv_2d () =
  (* a staircase of three points under reference (4, 4): 3 + 2 + 1 *)
  let points = [| [| 1.; 3. |]; [| 2.; 2. |]; [| 3.; 1. |] |] in
  Alcotest.check (close_to 1e-12) "6 of 16" 0.375
    (Hv.fraction ~ideal:[| 0.; 0. |] ~reference:[| 4.; 4. |] points);
  Alcotest.check (close_to 1e-12) "a wider box shrinks the share" (6. /. 36.)
    (Hv.fraction ~ideal:[| -2.; -2. |] ~reference:[| 4.; 4. |] points)

let hv_3d () =
  (* two unit-thick slabs of volume 2 overlapping in a unit cube *)
  let points = [| [| 0.; 1.; 1. |]; [| 1.; 0.; 1. |] |] in
  Alcotest.check (close_to 1e-12) "3 of 8" 0.375
    (Hv.fraction ~ideal:[| 0.; 0.; 0. |] ~reference:[| 2.; 2.; 2. |] points);
  Alcotest.check (close_to 1e-12) "one point" 0.125
    (Hv.fraction ~ideal:[| 0.; 0.; 0. |] ~reference:[| 2.; 2.; 2. |]
       [| [| 1.; 1.; 1. |] |])

let hv_edges () =
  Alcotest.check (close_to 1e-12) "better than ideal is clipped to the whole box" 1.0
    (Hv.fraction ~ideal:[| 0.; 0. |] ~reference:[| 1.; 1. |] [| [| -5.; -1. |] |]);
  Alcotest.check (close_to 1e-12) "a point beyond the reference adds nothing" 0.0
    (Hv.fraction ~ideal:[| 0.; 0. |] ~reference:[| 1.; 1. |] [| [| 0.5; 2. |] |]);
  Alcotest.check (close_to 1e-12) "empty front" 0.0
    (Hv.fraction ~ideal:[| 0.; 0. |] ~reference:[| 1.; 1. |] [||]);
  Alcotest.check_raises "empty box"
    (Invalid_argument "Hv.box_volume: empty side 1 [1, 1]") (fun () ->
      ignore (Hv.fraction ~ideal:[| 0.; 1. |] ~reference:[| 1.; 1. |] [||]))

(* ---- percentiles ------------------------------------------------------ *)

(* 1..n in a scrambled order *)
let samples n = Array.init n (fun i -> float_of_int (((i * 37) mod n) + 1))

let percentile_exact () =
  let xs = samples 100 in
  Alcotest.(check (result (float 0.) string)) "p50" (Ok 50.) (Sample.percentile 50. xs);
  Alcotest.(check (result (float 0.) string)) "p90 keeps ten beyond" (Ok 90.)
    (Sample.percentile 90. xs);
  Alcotest.(check (result (float 0.) string)) "p99 of 1000" (Ok 990.)
    (Sample.percentile 99. (samples 1000));
  Alcotest.(check (result (float 0.) string)) "p0.5 is an observed sample" (Ok 1.)
    (Sample.percentile 0.5 xs)

let percentile_refuses () =
  let refused p xs = Result.is_error (Sample.percentile p xs) in
  Alcotest.(check bool) "p91 of 100 leaves nine beyond" true (refused 91. (samples 100));
  Alcotest.(check bool) "p99 of 999" true (refused 99. (samples 999));
  Alcotest.(check bool) "median of 5" true (refused 50. (samples 5));
  Alcotest.(check bool) "no samples" true (refused 50. [||]);
  Alcotest.check_raises "p100"
    (Invalid_argument "Sample.percentile: p = 100 outside (0, 100)") (fun () ->
      ignore (Sample.percentile 100. (samples 100)))

let median () =
  Alcotest.check (close_to 1e-12) "odd" 2. (Sample.median [| 3.; 1.; 2. |]);
  Alcotest.check (close_to 1e-12) "even" 2.5 (Sample.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check (close_to 1e-12) "one" 7. (Sample.median [| 7. |])

(* ---- metric names ----------------------------------------------------- *)

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Report.valid_name n))
    [ "hv"; "serve.rtt_ms_p99"; "a-b_c.d"; "1x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Report.valid_name n))
    [ ""; "has space"; "a/b"; "caf\xc3\xa9"; "_lead"; ".lead"; "-lead";
      String.make 65 'a' ]

(* ---- span recorder ---------------------------------------------------- *)

let busy () = Unix.sleepf 0.002

let recorded () =
  let t = Spans.create ~enabled:true () in
  Spans.with_span t "root" (fun () ->
      busy ();
      Spans.with_span t "a" (fun () ->
          busy ();
          Spans.with_span t "leaf" busy);
      Spans.with_span t "b" busy;
      busy ());
  t

let children_within_parent () =
  let all = Spans.spans (recorded ()) in
  Alcotest.(check int) "four spans" 4 (List.length all);
  List.iter
    (fun (s : Spans.span) ->
      match s.parent with
      | None -> Alcotest.(check string) "the only root" "root" s.name
      | Some p ->
        let parent = List.find (fun (q : Spans.span) -> q.id = p) all in
        Alcotest.(check bool) (s.name ^ " starts inside its parent") true
          (parent.t0 <= s.t0);
        Alcotest.(check bool) (s.name ^ " ends inside its parent") true
          (s.t1 <= parent.t1))
    all

let self_time_sums_to_root () =
  let t = recorded () in
  let rows = Spans.self_time t in
  let root = List.find (fun (s : Spans.span) -> s.name = "root") (Spans.spans t) in
  let root_us = Spans.duration root *. 1e6 in
  Alcotest.check (close_to 1e-6) "self times sum to the root" root_us
    (Repro_prof.Analysis.total_self rows);
  let row name = List.find (fun (r : Repro_prof.Analysis.row) -> r.name = name) rows in
  Alcotest.(check bool) "a's self time excludes its leaf" true
    ((row "a").self_us < (row "a").total_us);
  Alcotest.check (close_to 1e-9) "a leaf's self time is its duration"
    (row "leaf").total_us (row "leaf").self_us

let disabled_records_nothing () =
  let t = Spans.create ~enabled:false () in
  Spans.with_span t "x" (fun () -> Spans.with_span t "y" ignore);
  Alcotest.(check int) "no spans" 0 (List.length (Spans.spans t));
  Alcotest.(check int) "no events" 0 (List.length (Spans.events t))

let leave_out_of_order () =
  let t = Spans.create ~enabled:true () in
  let outer = Spans.enter t "outer" in
  let _inner = Spans.enter t "inner" in
  Alcotest.check_raises "outer before inner"
    (Invalid_argument "Spans.leave: not the innermost open span") (fun () ->
      Spans.leave t outer)

(* ---- result line -------------------------------------------------------- *)

let m name value = { Report.name; value; unit_ = "s" }

let writes_result () =
  match
    Report.result_json ~correct:true ~attempted:3 ~failed:1
      [ m "wall_s" 1.25; m "hv" 0.5 ]
  with
  | Error e -> Alcotest.fail e
  | Ok line -> (
    match J.of_string line with
    | Error e -> Alcotest.fail e
    | Ok (J.Obj fields as doc) ->
      Alcotest.(check (list string)) "exactly the four keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields);
      let value =
        Option.bind (J.member "metrics" doc) (fun ms ->
            Option.bind (J.member "wall_s" ms) (J.member "value"))
      in
      Alcotest.(check bool) "value round-trips" true (value = Some (J.Num 1.25))
    | Ok _ -> Alcotest.fail "not an object")

let rejects_bad_results () =
  let rejected ?(attempted = 1) ?(failed = 0) metrics =
    Result.is_error (Report.result_json ~correct:true ~attempted ~failed metrics)
  in
  Alcotest.(check bool) "NaN" true (rejected [ m "x" Float.nan ]);
  Alcotest.(check bool) "infinity" true (rejected [ m "x" Float.infinity ]);
  Alcotest.(check bool) "duplicate name" true (rejected [ m "x" 1.; m "x" 2. ]);
  Alcotest.(check bool) "invalid name" true (rejected [ m "x y" 1. ]);
  Alcotest.(check bool) "nothing attempted" true (rejected ~attempted:0 []);
  Alcotest.(check bool) "more failed than attempted" true
    (rejected ~attempted:1 ~failed:2 []);
  Alcotest.(check bool) "a clean line is accepted" false (rejected [ m "x" 0. ])

let () =
  Alcotest.run "perfbench"
    [
      ( "hv",
        [
          Alcotest.test_case "2-D staircase" `Quick hv_2d;
          Alcotest.test_case "3-D slabs" `Quick hv_3d;
          Alcotest.test_case "clipping and empty cases" `Quick hv_edges;
        ] );
      ( "sample",
        [
          Alcotest.test_case "exact order statistic" `Quick percentile_exact;
          Alcotest.test_case "refuses thin tails" `Quick percentile_refuses;
          Alcotest.test_case "median" `Quick median;
        ] );
      ("names", [ Alcotest.test_case "metric-name pattern" `Quick names ]);
      ( "spans",
        [
          Alcotest.test_case "children within parent" `Quick children_within_parent;
          Alcotest.test_case "self times sum to the root" `Quick self_time_sums_to_root;
          Alcotest.test_case "disabled recorder" `Quick disabled_records_nothing;
          Alcotest.test_case "leave out of order" `Quick leave_out_of_order;
        ] );
      ( "report",
        [
          Alcotest.test_case "writes the result line" `Quick writes_result;
          Alcotest.test_case "rejects NaN, duplicates, bad counts" `Quick
            rejects_bad_results;
        ] );
    ]
