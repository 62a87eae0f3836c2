(* The observability layer: trace span balance and export format,
   histogram quantile properties, journal round-trips, the exact
   hypervolume indicator — and the zero-perturbation contract (a fully
   observed GA run produces bit-identical results to a bare one). *)

module Obs = Repro_obs
module Json = Repro_util.Json
module Ev = Repro_prof.Event

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let temp_dir () =
  let dir = Filename.temp_file "hieropt_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- trace ---- *)

(* the exported file, decoded the way [trace merge] and [report] read it *)
let trace_events path =
  match Repro_prof.Merge.load path with
  | Ok p -> p.Repro_prof.Merge.events
  | Error e -> Alcotest.failf "%s does not decode: %s" path e

let test_trace_spans_balance () =
  with_dir @@ fun dir ->
  Obs.Trace.start ();
  let out =
    Obs.Trace.span "outer" ~args:[ ("k", "v") ] @@ fun () ->
    Obs.Trace.instant "marker";
    (try Obs.Trace.span "inner" (fun () -> failwith "boom")
     with Failure _ -> ());
    17
  in
  Obs.Trace.stop ();
  Alcotest.(check int) "span returns" 17 out;
  (* B outer, i marker, B inner, E inner, E outer *)
  Alcotest.(check int) "event count" 5 (Obs.Trace.event_count ());
  let path = Filename.concat dir "t.json" in
  Alcotest.(check int) "export count" 5 (Obs.Trace.export path);
  let evs = trace_events path in
  Alcotest.(check (list char)) "phases in sequence order"
    [ 'B'; 'i'; 'B'; 'E'; 'E' ]
    (List.map (fun (e : Ev.t) -> e.ph) evs);
  (* every B has a matching E per tid, even for the raising span *)
  Alcotest.(check int) "balanced" 0 (Ev.unbalanced evs);
  (* args survive the export *)
  Alcotest.(check (list (pair string string)))
    "span args" [ ("k", "v") ] (List.hd evs).args

let test_trace_disabled_passthrough () =
  (* make sure a previous test's buffers are gone, then stay disabled *)
  Obs.Trace.start ();
  Obs.Trace.stop ();
  let before = Obs.Trace.event_count () in
  let r = Obs.Trace.span "nope" (fun () -> 3) in
  Obs.Trace.instant "nope";
  Alcotest.(check int) "result passes through" 3 r;
  Alcotest.(check int) "no events buffered" before (Obs.Trace.event_count ());
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ())

let test_trace_concurrent_domains () =
  Obs.Trace.start ();
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 25 do
              Obs.Trace.span "work"
                ~args:[ ("d", string_of_int d); ("i", string_of_int i) ]
                (fun () -> ())
            done))
  in
  List.iter Domain.join doms;
  Obs.Trace.stop ();
  Alcotest.(check int) "all events captured" (4 * 25 * 2)
    (Obs.Trace.event_count ());
  with_dir @@ fun dir ->
  let path = Filename.concat dir "t.json" in
  ignore (Obs.Trace.export path);
  (* per-tid streams must each be balanced *)
  Alcotest.(check int) "balanced per tid" 0 (Ev.unbalanced (trace_events path))

(* ---- histogram ---- *)

let test_histogram_basics () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  let s0 = Obs.Histogram.stats h in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 s0.Obs.Histogram.p50;
  List.iter (Obs.Histogram.observe h) [ 0.001; 0.002; 0.004; Float.nan ];
  Alcotest.(check int) "nan dropped" 3 (Obs.Histogram.count h);
  let s = Obs.Histogram.stats h in
  Alcotest.(check (float 1e-12)) "sum" 0.007 s.Obs.Histogram.sum;
  Alcotest.(check (float 1e-12)) "min" 0.001 s.Obs.Histogram.min;
  Alcotest.(check (float 1e-12)) "max" 0.004 s.Obs.Histogram.max;
  Alcotest.(check bool) "p50 in range" true
    (s.Obs.Histogram.p50 >= 0.001 && s.Obs.Histogram.p50 <= 0.004);
  let v = Obs.Histogram.time h (fun () -> 42) in
  Alcotest.(check int) "time passes result" 42 v;
  Alcotest.(check int) "time observed" 4 (Obs.Histogram.count h)

let test_histogram_registry () =
  Obs.Histogram.clear_registry ();
  let a = Obs.Histogram.get "reg.a" in
  let a' = Obs.Histogram.get "reg.a" in
  Obs.Histogram.observe a 0.5;
  Alcotest.(check int) "same instance" 1 (Obs.Histogram.count a');
  ignore (Obs.Histogram.get "reg.b");
  let names = List.map fst (Obs.Histogram.all ()) in
  Alcotest.(check (list string)) "sorted listing" [ "reg.a"; "reg.b" ] names;
  Obs.Histogram.clear_registry ();
  Alcotest.(check (list string)) "cleared" []
    (List.map fst (Obs.Histogram.all ()))

(* Taken at module initialisation, before any test body runs: the
   program's hot-path histogram handles must be registered up front,
   not created lazily by whichever pool domain or dispatch thread gets
   there first — two forcing one lazy value at once raise
   CamlinternalLazy.Undefined. *)
let histograms_at_start = List.map fst (Obs.Histogram.all ())

let test_histogram_handles_at_start () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (List.mem name histograms_at_start))
    [
      "eval.duration";
      "pool.queue_wait";
      "solver.factorise";
      "solver.refactorise";
    ]

let positive_floats =
  QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1e-7 1e4))

let prop_histogram_quantiles_monotone_bounded =
  QCheck.Test.make ~name:"histogram quantiles are monotone and bounded"
    ~count:200 positive_floats (fun xs ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) xs;
      let lo = List.fold_left Float.min Float.infinity xs in
      let hi = List.fold_left Float.max Float.neg_infinity xs in
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let vs = List.map (Obs.Histogram.quantile h) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone vs && List.for_all (fun v -> v >= lo && v <= hi) vs)

let prop_histogram_exact_on_equal =
  QCheck.Test.make ~name:"histogram quantiles are exact on constant data"
    ~count:200
    QCheck.(pair (float_range 1e-7 1e4) (int_range 1 50))
    (fun (x, n) ->
      let h = Obs.Histogram.create () in
      for _ = 1 to n do
        Obs.Histogram.observe h x
      done;
      List.for_all
        (fun q -> Obs.Histogram.quantile h q = x)
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

(* ---- journal ---- *)

let test_journal_roundtrip () =
  with_dir @@ fun dir ->
  let j = Obs.Journal.create ~run_id:"testrun" ~dir () in
  Alcotest.(check string) "path" (Filename.concat dir "run.journal")
    (Obs.Journal.path j);
  Obs.Journal.set_current j;
  Alcotest.(check bool) "active" true (Obs.Journal.active ());
  Obs.Journal.run_start j ~fingerprint:"fp-1"
    [ ("seed", Json.Num 42.0); ("note", Json.Str "x\"y") ];
  Obs.Journal.record_phase_start "circuit-ga";
  Obs.Journal.record_ga_generation ~label:"circuit-ga" ~generation:1
    ~front_size:7 ~spread:0.25 ~hypervolume:3.5;
  Obs.Journal.record_phase_finish "circuit-ga" ~seconds:1.5;
  Obs.Journal.record_evals ~label:"circuit" ~avoided:2 ~paid:6;
  Repro_engine.Telemetry.warn ~key:"obs.test.warn" "journal %s" "mirror";
  Obs.Journal.run_finish j ~seconds:2.5 [];
  Obs.Journal.clear_current ();
  Alcotest.(check bool) "inactive" false (Obs.Journal.active ());
  Obs.Journal.close j;
  let parsed =
    match Obs.Journal.read (Filename.concat dir "run.journal") with
    | Ok events -> events
    | Error e -> Alcotest.fail e
  in
  let events =
    List.map
      (fun j ->
        (match Json.member "run" j with
        | Some (Json.Str "testrun") -> ()
        | _ -> Alcotest.fail "wrong run id");
        (match Json.member "ts" j with
        | Some (Json.Num _) -> ()
        | _ -> Alcotest.fail "no timestamp");
        match Json.member "event" j with
        | Some (Json.Str e) -> e
        | _ -> Alcotest.fail "no event name")
      parsed
  in
  Alcotest.(check (list string)) "event sequence"
    [ "run.start"; "phase.start"; "ga.generation"; "phase.finish";
      "evals"; "warning"; "run.finish" ]
    events;
  (* spot-check the structured payloads *)
  let nth n = List.nth parsed n in
  (match Json.member "fingerprint" (nth 0) with
  | Some (Json.Str "fp-1") -> ()
  | _ -> Alcotest.fail "run.start fingerprint");
  (match Json.member "hypervolume" (nth 2) with
  | Some (Json.Num hv) -> Alcotest.(check (float 0.0)) "hv" 3.5 hv
  | _ -> Alcotest.fail "ga.generation hypervolume");
  (match Json.member "seconds" (nth 3) with
  | Some (Json.Num s) -> Alcotest.(check (float 0.0)) "phase seconds" 1.5 s
  | _ -> Alcotest.fail "phase.finish seconds");
  match (Json.member "key" (nth 5), Json.member "message" (nth 5)) with
  | Some (Json.Str "obs.test.warn"), Some (Json.Str "journal mirror") -> ()
  | _ -> Alcotest.fail "warning mirror payload"

(* Golden journal lines at a fixed timestamp; the live writer must
   produce the same bytes after its own timestamp. *)
let test_journal_lines_golden () =
  let ts = 1700000000.123456 and run = "20261017T062918Z-31528" in
  let int n = Json.Num (float_of_int n) in
  let run_start =
    {|{"ts":1700000000.123456,"run":"20261017T062918Z-31528","event":"run.start","fingerprint":"2c0f21a0","seed":2009,"jobs":2,"workers":"127.0.0.1:9401,127.0.0.1:9402"}|}
  and generation =
    {|{"ts":1700000000.123456,"run":"20261017T062918Z-31528","event":"ga.generation","label":"circuit","generation":3,"front_size":12,"spread":0.8144312345678901,"hypervolume":0.038854}|}
  and run_finish =
    {|{"ts":1700000000.123456,"run":"20261017T062918Z-31528","event":"run.finish","seconds":22.586123,"eval_avoided":0,"eval_paid":0,"eval_cache_hits":6,"eval_runs":102}|}
  in
  let meta =
    [ ("seed", int 2009); ("jobs", int 2);
      ("workers", Json.Str "127.0.0.1:9401,127.0.0.1:9402") ]
  and finish =
    [ ("eval_avoided", int 0); ("eval_paid", int 0);
      ("eval_cache_hits", int 6); ("eval_runs", int 102) ]
  in
  Alcotest.(check string) "run.start" run_start
    (Obs.Journal.line ~ts ~run "run.start"
       (("fingerprint", Json.Str "2c0f21a0") :: meta));
  Alcotest.(check string) "ga.generation" generation
    (Obs.Journal.line ~ts ~run "ga.generation"
       [ ("label", Json.Str "circuit"); ("generation", int 3);
         ("front_size", int 12); ("spread", Json.Num 0.8144312345678901);
         ("hypervolume", Json.Num 0.038854) ]);
  Alcotest.(check string) "run.finish" run_finish
    (Obs.Journal.line ~ts ~run "run.finish"
       (("seconds", Json.Num 22.586123) :: finish));
  (* the typed writers compose the same fields *)
  with_dir @@ fun dir ->
  let j = Obs.Journal.create ~run_id:run ~dir () in
  Obs.Journal.run_start j ~fingerprint:"2c0f21a0" meta;
  Obs.Journal.set_current j;
  Obs.Journal.record_ga_generation ~label:"circuit" ~generation:3
    ~front_size:12 ~spread:0.8144312345678901 ~hypervolume:0.038854;
  Obs.Journal.clear_current ();
  Obs.Journal.run_finish j ~seconds:22.586123 finish;
  Obs.Journal.close j;
  let after_ts line =
    let i = String.index line ',' in
    String.sub line i (String.length line - i)
  in
  let written =
    In_channel.with_open_bin (Obs.Journal.path j) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) "written lines after their timestamps"
    (List.map after_ts [ run_start; generation; run_finish ])
    (List.map after_ts written)

(* whatever bytes a journal file holds, reading it is Ok or Error, and
   the report renders whatever it read: arbitrary bytes, and runs of
   real, wrongly typed and non-object lines cut at any point *)
let prop_journal_read_total =
  let lines =
    [
      {|{"ts":1,"run":"r","event":"run.start","fingerprint":"f","seed":2009}|};
      {|{"ts":2,"run":"r","event":"phase.finish","phase":"yield","seconds":0.5}|};
      {|{"ts":3,"run":"r","event":"ga.generation","label":"circuit","generation":1,"front_size":4,"spread":0.5,"hypervolume":0.25}|};
      {|{"ts":4,"run":"r","event":"evals","label":"circuit","avoided":2,"paid":6}|};
      {|{"ts":5,"run":"r","event":"run.finish","seconds":1,"eval_runs":6}|};
      {|{"ts":"x","run":7,"event":"run.start","fingerprint":[]}|};
      {|{"run":"r","event":"phase.finish","phase":3,"seconds":"x"}|};
      {|{"run":"r","event":"ga.generation","label":null,"generation":"1"}|};
      {|{"run":"r","event":"checkpoint","action":{}}|};
      {|[1,2]|};
      {|"run.start"|};
    ]
  in
  let cut_journal =
    QCheck.Gen.(
      map2
        (fun ls cut ->
          let s = String.concat "\n" ls in
          String.sub s 0 (min cut (String.length s)))
        (list_size (int_bound 8) (oneofl lines))
        nat)
  in
  QCheck.Test.make ~name:"journal read never raises" ~count:200
    QCheck.(oneof [ string; make ~print:Fun.id cut_journal ])
    (fun bytes ->
      with_dir @@ fun dir ->
      let path = Filename.concat dir "run.journal" in
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      match Obs.Journal.read path with
      | Ok events ->
        ignore
          (Repro_prof.Report.journal
             (Format.make_formatter (fun _ _ _ -> ()) ignore)
             events);
        true
      | Error _ -> true)

let test_journal_record_noops_without_current () =
  (* the record_* family must be safe (and silent) with no journal *)
  Obs.Journal.clear_current ();
  Obs.Journal.record_phase_start "p";
  Obs.Journal.record_phase_finish "p" ~seconds:0.0;
  Obs.Journal.record_ga_generation ~label:"l" ~generation:0 ~front_size:0
    ~spread:0.0 ~hypervolume:0.0;
  Obs.Journal.record_evals ~label:"l" ~avoided:0 ~paid:0;
  Obs.Journal.record_warning ~key:"k" "msg";
  Alcotest.(check bool) "still inactive" false (Obs.Journal.active ())

(* ---- hypervolume ---- *)

let ev objectives =
  { Repro_moo.Problem.objectives; constraint_violation = 0.0 }

let test_hypervolume_exact () =
  let module Hv = Repro_moo.Hypervolume in
  (* d = 1: distance from the best point to the reference *)
  Alcotest.(check (float 1e-12)) "1-D" 2.5
    (Hv.exact ~reference:[| 3.0 |] [| [| 0.5 |]; [| 1.0 |] |]);
  (* d = 2: matches the independent staircase implementation *)
  let pts2 = [| [| 1.0; 3.0 |]; [| 2.0; 1.0 |]; [| 5.0; 5.0 |] |] in
  let reference = [| 4.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "2-D staircase" 7.0
    (Hv.exact ~reference pts2);
  Alcotest.(check (float 1e-12)) "2-D matches Pareto.hypervolume_2d"
    (Repro_moo.Pareto.hypervolume_2d ~reference
       (Array.map (fun o -> ev o) pts2))
    (Hv.exact ~reference pts2);
  (* d = 3 by inclusion-exclusion: 8 + 3 - 2 = 9 *)
  Alcotest.(check (float 1e-12)) "3-D union" 9.0
    (Hv.exact ~reference:[| 3.0; 3.0; 3.0 |]
       [| [| 1.0; 1.0; 1.0 |]; [| 2.0; 2.0; 0.0 |] |]);
  (* dominated points must not change the volume *)
  Alcotest.(check (float 1e-12)) "dominated point is free" 9.0
    (Hv.exact ~reference:[| 3.0; 3.0; 3.0 |]
       [| [| 1.0; 1.0; 1.0 |]; [| 2.0; 2.0; 0.0 |]; [| 2.5; 2.5; 2.5 |] |]);
  (* empty / non-dominating sets *)
  Alcotest.(check (float 0.0)) "empty" 0.0 (Hv.exact ~reference [||]);
  Alcotest.(check (float 0.0)) "outside reference" 0.0
    (Hv.exact ~reference:[| 1.0; 1.0 |] [| [| 2.0; 2.0 |] |])

let test_hypervolume_of_front () =
  let module Hv = Repro_moo.Hypervolume in
  let front =
    [|
      ev [| 1.0; 3.0; 99.0 |];
      ev [| 2.0; 1.0; -7.0 |];
      { Repro_moo.Problem.objectives = [| 0.0; 0.0; 0.0 |];
        constraint_violation = 1.0 };
    |]
  in
  (* infeasible point ignored; dims projects away the third objective *)
  Alcotest.(check (float 1e-12)) "projected + filtered" 7.0
    (Hv.of_front ~dims:[| 0; 1 |] ~reference:[| 4.0; 4.0 |] front);
  (* identity dims = no dims *)
  let front2 = [| ev [| 1.0; 1.0 |]; ev [| 0.5; 2.0 |] |] in
  Alcotest.(check (float 1e-12)) "dims identity"
    (Hv.of_front ~reference:[| 3.0; 3.0 |] front2)
    (Hv.of_front ~dims:[| 0; 1 |] ~reference:[| 3.0; 3.0 |] front2)

let prop_hypervolume_monotone =
  (* adding a point can only grow the dominated region *)
  QCheck.Test.make ~name:"hypervolume is monotone under union" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8)
           (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (pts, (x, y)) ->
      let module Hv = Repro_moo.Hypervolume in
      let reference = [| 2.0; 2.0 |] in
      let arr = Array.of_list (List.map (fun (a, b) -> [| a; b |]) pts) in
      let hv0 = Hv.exact ~reference arr in
      let hv1 = Hv.exact ~reference (Array.append arr [| [| x; y |] |]) in
      hv1 >= hv0 -. 1e-12)

(* ---- zero perturbation ---- *)

let zdt1 =
  Repro_moo.Problem.create ~name:"zdt1-obs"
    ~bounds:(Array.make 6 (0.0, 1.0))
    ~objective_names:[| "f1"; "f2" |]
    (fun v ->
      let f1 = v.(0) in
      let s = ref 0.0 in
      for i = 1 to 5 do
        s := !s +. v.(i)
      done;
      let g = 1.0 +. (9.0 *. !s /. 5.0) in
      {
        Repro_moo.Problem.objectives = [| f1; g *. (1.0 -. sqrt (f1 /. g)) |];
        constraint_violation = 0.0;
      })

let test_zero_perturbation () =
  let options =
    { Repro_moo.Nsga2.default_options with population = 16; generations = 6 }
  in
  let run () =
    Repro_moo.Nsga2.optimise ~options
      ~evaluator:(Repro_moo.Problem.parallel_evaluator ())
      zdt1 (Repro_util.Prng.create 2009)
  in
  let bare = run () in
  (* the same run under full observability: tracing on with GC-delta
     capture, a journal current, histograms recording *)
  with_dir @@ fun dir ->
  let j = Obs.Journal.create ~run_id:"zp" ~dir () in
  Obs.Journal.set_current j;
  Obs.Trace.start ~gc:true ();
  let observed =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.stop ();
        Obs.Journal.clear_current ();
        Obs.Journal.close j)
      run
  in
  Alcotest.(check bool) "spans were recorded" true
    (Obs.Trace.event_count () > 0);
  Alcotest.(check int) "same population size" (Array.length bare)
    (Array.length observed);
  Array.iteri
    (fun i (b : Repro_moo.Nsga2.individual) ->
      let o = observed.(i) in
      if b.Repro_moo.Nsga2.x <> o.Repro_moo.Nsga2.x
         || b.Repro_moo.Nsga2.evaluation <> o.Repro_moo.Nsga2.evaluation
      then Alcotest.failf "individual %d perturbed by observability" i)
    bare

let suite =
  [
    Alcotest.test_case "trace spans balance" `Quick test_trace_spans_balance;
    Alcotest.test_case "trace disabled passthrough" `Quick
      test_trace_disabled_passthrough;
    Alcotest.test_case "trace concurrent domains" `Quick
      test_trace_concurrent_domains;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram registry" `Quick test_histogram_registry;
    Alcotest.test_case "histogram handles exist at start" `Quick
      test_histogram_handles_at_start;
    QCheck_alcotest.to_alcotest prop_histogram_quantiles_monotone_bounded;
    QCheck_alcotest.to_alcotest prop_histogram_exact_on_equal;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal no-ops without current" `Quick
      test_journal_record_noops_without_current;
    Alcotest.test_case "journal lines golden" `Quick test_journal_lines_golden;
    QCheck_alcotest.to_alcotest prop_journal_read_total;
    Alcotest.test_case "hypervolume exact" `Quick test_hypervolume_exact;
    Alcotest.test_case "hypervolume of_front" `Quick test_hypervolume_of_front;
    QCheck_alcotest.to_alcotest prop_hypervolume_monotone;
    Alcotest.test_case "zero perturbation" `Quick test_zero_perturbation;
  ]
