(* repro_prof: span reconstruction, self-time / GC / utilization
   analyses, the Prometheus rendering, and the multi-process trace
   merge — including QCheck properties over synthetic span forests. *)

module Ev = Repro_prof.Event
module A = Repro_prof.Analysis
module M = Repro_prof.Merge

(* ---- synthetic traces -------------------------------------------- *)

(* nested span specs: name, per-span self allocation (minor words),
   children.  The builder assigns every begin/end its own timestamp
   tick, so all spans have positive duration and a total order. *)
type spec = S of string * float * spec list

let rec spec_total_gc (S (_, self, kids)) =
  List.fold_left (fun acc k -> acc +. spec_total_gc k) self kids

(* events in emission order; gc.minor_w on each end event is self +
   children, exactly like Gc.quick_stat deltas around the span body *)
let build ?(pid = 1) ?(tid = 0) ?(seq0 = 0) ?(t0 = 0.0) specs =
  let seq = ref seq0 in
  let ts = ref t0 in
  let events = ref [] in
  let tick () =
    let t = !ts in
    ts := t +. 1.0;
    t
  in
  let next () =
    let s = !seq in
    incr seq;
    s
  in
  let push e = events := e :: !events in
  let rec walk (S (name, _, kids) as sp) =
    push { Ev.name; ph = 'B'; ts = tick (); pid; tid; seq = next (); args = [] };
    List.iter walk kids;
    push
      {
        Ev.name;
        ph = 'E';
        ts = tick ();
        pid;
        tid;
        seq = next ();
        args = [ ("gc.minor_w", Printf.sprintf "%.0f" (spec_total_gc sp)) ];
      }
  in
  List.iter walk specs;
  List.rev !events

(* forest shape as (name, depth) preorder — the invariant merge must
   preserve *)
let shape roots =
  List.map (fun (s : Ev.span) -> (s.Ev.name, s.Ev.depth)) (Ev.flatten roots)

let spec_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let name = map (fun i -> "s" ^ string_of_int i) (int_range 0 5) in
           let alloc = map float_of_int (int_range 0 1000) in
           if n <= 0 then map2 (fun nm a -> S (nm, a, [])) name alloc
           else
             map3
               (fun nm a kids -> S (nm, a, kids))
               name alloc
               (list_size (int_range 0 3) (self (n / 2)))))

let forest_gen = QCheck.Gen.(list_size (int_range 1 4) spec_gen)

let forest_arb =
  QCheck.make forest_gen
    ~print:(fun specs ->
      let rec pp (S (n, a, kids)) =
        Printf.sprintf "%s(%.0f)[%s]" n a (String.concat ";" (List.map pp kids))
      in
      String.concat " " (List.map pp specs))

(* ---- reconstruction + analysis unit tests ------------------------- *)

let test_span_reconstruction () =
  let events =
    build [ S ("a", 10.0, [ S ("b", 5.0, []); S ("c", 0.0, []) ]) ]
  in
  Alcotest.(check int) "balanced" 0 (Ev.unbalanced events);
  match Ev.spans events with
  | [ a ] ->
    Alcotest.(check string) "root name" "a" a.Ev.name;
    Alcotest.(check (list string))
      "children chronological" [ "b"; "c" ]
      (List.map (fun s -> s.Ev.name) a.Ev.children);
    Alcotest.(check int) "root id is the begin seq" 0 a.Ev.id;
    (* a's end-event gc is self + children: 10 + 5 + 0 *)
    Alcotest.(check (float 1e-9)) "gc total" 15.0 (Ev.gc_field a "gc.minor_w")
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_unbalanced_detects_stray () =
  let events = build [ S ("a", 0.0, []) ] in
  let stray =
    { Ev.name = "x"; ph = 'E'; ts = 99.0; pid = 1; tid = 0; seq = 99; args = [] }
  in
  Alcotest.(check int) "one stray end" 1 (Ev.unbalanced (events @ [ stray ]));
  let open_b =
    { Ev.name = "y"; ph = 'B'; ts = 98.0; pid = 1; tid = 7; seq = 98; args = [] }
  in
  Alcotest.(check int) "one open begin" 1 (Ev.unbalanced (events @ [ open_b ]))

let test_utilization_window () =
  (* tid 0: busy (pool.chunk) from t=1..2 inside a root of 0..3;
     tid 1: never busy *)
  let events =
    build ~tid:0 [ S ("run", 0.0, [ S ("pool.chunk", 0.0, []) ]) ]
    @ build ~tid:1 ~seq0:100 ~t0:0.0 [ S ("other", 0.0, []) ]
  in
  let roots = Ev.spans events in
  let util = A.utilization roots ~t0:0.0 ~t1:4.0 in
  Alcotest.(check int) "two domains" 2 (List.length util);
  let f0 = List.assoc (1, 0) util and f1 = List.assoc (1, 1) util in
  Alcotest.(check (float 1e-9)) "tid0 busy 1/4" 0.25 f0;
  Alcotest.(check (float 1e-9)) "tid1 idle" 0.0 f1

let test_folded_output () =
  let events = build [ S ("run", 0.0, [ S ("work", 0.0, []) ]) ] in
  let roots = Ev.spans events in
  let out = A.folded ~labels:[ (1, "coord") ] roots in
  let lines = String.split_on_char '\n' (String.trim out) in
  (* run: t0=0 t1=3, child 1..2 → self 2; work: self 1 *)
  Alcotest.(check (list string))
    "folded lines"
    [ "coord/t0;run 2"; "coord/t0;run;work 1" ]
    lines

(* a merged two-process trace: both processes have a tid 0 and their
   spans overlap, so pairing begin/end events by tid alone would cross
   them (a 100 µs, b 40 µs) *)
let test_slowest_merged () =
  let ev name ph ts pid seq =
    { Ev.name; ph; ts; pid; tid = 0; seq; args = [] }
  in
  let events =
    [
      ev "a" 'B' 0.0 1 0;
      ev "b" 'B' 10.0 2 0;
      ev "a" 'E' 50.0 1 1;
      ev "b" 'E' 100.0 2 1;
    ]
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "longest first, paired per process"
    [ ("b", 90.0); ("a", 50.0) ]
    (List.map
       (fun (s : Ev.span) -> (s.Ev.name, Ev.dur s))
       (A.slowest (Ev.spans events)))

(* ---- QCheck: attribution properties ------------------------------- *)

(* self-times telescope: over any forest they sum exactly to the roots'
   total duration — the property behind "report --profile attributes
   ~100% of wall time" *)
let prop_self_time_telescopes =
  QCheck.Test.make ~name:"self-times sum to root durations" ~count:200
    forest_arb (fun specs ->
      let roots = Ev.spans (build specs) in
      let rows = A.self_time roots in
      let wall =
        List.fold_left (fun acc s -> acc +. Ev.dur s) 0.0 roots
      in
      Float.abs (A.total_self rows -. wall) < 1e-6 *. Float.max 1.0 wall)

(* GC deltas: a span's self allocation never exceeds its total, and the
   per-name selfs conserve the forest's total allocation *)
let prop_gc_attribution =
  QCheck.Test.make ~name:"gc self + children <= total, selfs conserve"
    ~count:200 forest_arb (fun specs ->
      let roots = Ev.spans (build specs) in
      let rows = A.self_time roots in
      let per_span_ok =
        List.for_all
          (fun (s : Ev.span) ->
            let total = Ev.gc_field s "gc.minor_w" in
            let children =
              List.fold_left
                (fun acc c -> acc +. Ev.gc_field c "gc.minor_w")
                0.0 s.Ev.children
            in
            children <= total +. 1e-9)
          (Ev.flatten roots)
      in
      let forest_total =
        List.fold_left (fun acc sp -> acc +. spec_total_gc sp) 0.0 specs
      in
      let selfs =
        List.fold_left (fun acc (r : A.row) -> acc +. r.A.gc_minor_self) 0.0 rows
      in
      let row_ok =
        List.for_all
          (fun (r : A.row) ->
            r.A.gc_minor_self <= r.A.gc_minor_total +. 1e-9)
          rows
      in
      per_span_ok && row_ok && Float.abs (selfs -. forest_total) < 1e-6)

(* ---- QCheck: merge properties ------------------------------------- *)

let mk_clock_instant ~seq ~endpoint ~delta =
  {
    Ev.name = "dist.clock";
    ph = 'i';
    ts = 0.5;
    pid = 1;
    tid = 0;
    seq;
    args = [ ("endpoint", endpoint); ("delta_s", Printf.sprintf "%.9f" delta) ];
  }

let merge_case_gen =
  QCheck.Gen.(
    let shift = map (fun i -> float_of_int i /. 1000.0) (int_range (-5000) 5000) in
    let delta = map (fun i -> float_of_int i /. 100000.0) (int_range (-100) 100) in
    map3 (fun c w (s, d) -> (c, w, s, d)) forest_gen forest_gen (pair shift delta))

let merge_arb = QCheck.make merge_case_gen

let base_of events =
  { M.label = Some "coordinator"; pid = 1; epoch = 1000.0; trace = "t1"; events }

let prop_merge_preserves_nesting =
  QCheck.Test.make ~name:"merge preserves each process's span forest"
    ~count:200 merge_arb (fun (cspec, wspec, shift, delta) ->
      let cevents =
        build ~pid:1 cspec
        @ [ mk_clock_instant ~seq:10_000 ~endpoint:"127.0.0.1:9401" ~delta ]
      in
      let wevents = build ~pid:77 wspec in
      let base = base_of cevents in
      let worker =
        {
          M.label = Some "worker:9401";
          pid = 77;
          epoch = 1000.0 +. shift;
          trace = "t1";
          events = wevents;
        }
      in
      let merged, labels = M.merge ~base ~workers:[ worker ] in
      let by_pid p =
        List.filter (fun (e : Ev.t) -> e.Ev.pid = p) merged
      in
      (* worker gets the deterministic fresh pid, labels carry both *)
      List.mem (1, "coordinator") labels
      && List.mem (2, "worker:9401") labels
      && shape (Ev.spans (by_pid 1)) = shape (Ev.spans cevents)
      && shape (Ev.spans (by_pid 2)) = shape (Ev.spans wevents))

let prop_merge_clock_monotone =
  QCheck.Test.make ~name:"merged worker clock is a uniform monotone shift"
    ~count:200 merge_arb (fun (cspec, wspec, shift, delta) ->
      let cevents =
        build ~pid:1 cspec
        @ [ mk_clock_instant ~seq:10_000 ~endpoint:"127.0.0.1:9401" ~delta ]
      in
      let wevents = build ~pid:77 wspec in
      let base = base_of cevents in
      let worker =
        {
          M.label = Some "worker:9401";
          pid = 77;
          epoch = 1000.0 +. shift;
          trace = "t1";
          events = wevents;
        }
      in
      let merged, _ = M.merge ~base ~workers:[ worker ] in
      let shifted =
        List.filter (fun (e : Ev.t) -> e.Ev.pid = 2) merged
        |> List.sort (fun (a : Ev.t) b -> compare a.Ev.seq b.Ev.seq)
      in
      let expected = (shift -. delta) *. 1e6 in
      (* exact shift per event... *)
      let shift_ok =
        List.for_all2
          (fun (w : Ev.t) (m : Ev.t) ->
            Float.abs (m.Ev.ts -. w.Ev.ts -. expected)
            < 1e-6 *. Float.max 1.0 (Float.abs expected))
          wevents shifted
      in
      (* ...hence strictly increasing timestamps survive the merge *)
      let rec monotone = function
        | (a : Ev.t) :: (b : Ev.t) :: rest ->
          a.Ev.ts < b.Ev.ts && monotone (b :: rest)
        | _ -> true
      in
      shift_ok && monotone shifted)

let prop_merge_validate_no_orphans =
  QCheck.Test.make
    ~name:"propagated parents resolve after merge (validate = [])"
    ~count:100 forest_arb (fun wspec ->
      (* coordinator: one wide dispatch span [0, 10^7 us]; worker spans
         inside it, tagged with the dispatch span's id as parent *)
      let dispatch_b =
        { Ev.name = "dist.dispatch"; ph = 'B'; ts = 0.0; pid = 1; tid = 0;
          seq = 0; args = [] }
      in
      let dispatch_e = { dispatch_b with ph = 'E'; ts = 1e7; seq = 1 } in
      let cevents = [ dispatch_b; dispatch_e ] in
      let tag_parent (e : Ev.t) =
        if e.Ev.ph = 'B' then
          { e with Ev.args = ("parent", "0") :: e.Ev.args }
        else e
      in
      let wevents =
        List.map tag_parent (build ~pid:77 ~t0:100.0 wspec)
      in
      let base = base_of cevents in
      let worker =
        { M.label = Some "worker:9401"; pid = 77; epoch = 1000.0;
          trace = "t1"; events = wevents }
      in
      let merged, _ = M.merge ~base ~workers:[ worker ] in
      M.validate ~coordinator_pid:1 merged = []
      (* and a parent id nobody emitted is caught *)
      &&
      let bogus =
        List.map
          (fun (e : Ev.t) ->
            if e.Ev.ph = 'B' && Ev.arg "parent" e.Ev.args <> None then
              { e with Ev.args = [ ("parent", "424242") ] }
            else e)
          merged
      in
      M.validate ~coordinator_pid:1 bogus <> [])

let test_validate_containment () =
  (* a remote span that starts long before its parent must be flagged *)
  let parent_b =
    { Ev.name = "dist.dispatch"; ph = 'B'; ts = 1e6; pid = 1; tid = 0;
      seq = 0; args = [] }
  in
  let parent_e = { parent_b with ph = 'E'; ts = 2e6; seq = 1 } in
  let child_b =
    { Ev.name = "dist.work"; ph = 'B'; ts = 0.0; pid = 2; tid = 0; seq = 2;
      args = [ ("parent", "0") ] }
  in
  let child_e = { child_b with ph = 'E'; ts = 10.0; seq = 3; args = [] } in
  let errors =
    M.validate ~coordinator_pid:1 [ parent_b; parent_e; child_b; child_e ]
  in
  Alcotest.(check bool) "escape reported" true (errors <> [])

let test_endpoint_offsets_median () =
  let inst seq delta =
    mk_clock_instant ~seq ~endpoint:"10.0.0.2:9000" ~delta
  in
  let events = [ inst 0 0.010; inst 1 0.030; inst 2 0.020 ] in
  (match M.endpoint_offsets events with
  | [ ("10.0.0.2:9000", d) ] ->
    Alcotest.(check (float 1e-12)) "median of 3" 0.020 d
  | other -> Alcotest.failf "unexpected offsets (%d)" (List.length other));
  (* NTP-style estimate from one envelope: remote leads by 5 ms with a
     symmetric 1 ms one-way delay *)
  let d =
    M.offset ~t_send:0.0 ~t_recv:0.006 ~t_reply_sent:0.010 ~t_reply_recv:0.006
  in
  Alcotest.(check (float 1e-12)) "offset" 0.005 d

(* ---- tracer round trip: live spans → export → analysis ------------ *)

let test_live_gc_capture_roundtrip () =
  let module Trace = Repro_obs.Trace in
  Trace.start ~gc:true ();
  let r =
    Trace.span "outer" @@ fun () ->
    (* thousands of small boxed values: guaranteed minor-heap traffic
       (one big array would go straight to the major heap) *)
    let x =
      Trace.span "alloc" (fun () ->
          List.init 2_000 (fun i -> (float_of_int i, i)))
    in
    List.length x
  in
  Trace.stop ();
  Alcotest.(check int) "body ran" 2_000 r;
  let events =
    List.map
      (fun (e : Trace.event) ->
        {
          Ev.name = e.Trace.name;
          ph = e.Trace.ph;
          ts = e.Trace.ts;
          pid = 1;
          tid = e.Trace.tid;
          seq = e.Trace.seq;
          args = e.Trace.args;
        })
      (Trace.events ())
  in
  let roots = Ev.spans events in
  match A.find_span (String.equal "alloc") roots with
  | None -> Alcotest.fail "alloc span missing"
  | Some s ->
    Alcotest.(check bool)
      "allocation attributed" true
      (Ev.gc_field s "gc.minor_w" >= 2_000.0);
    (match A.find_span (String.equal "outer") roots with
    | None -> Alcotest.fail "outer span missing"
    | Some outer ->
      Alcotest.(check bool)
        "child gc <= parent gc" true
        (Ev.gc_field s "gc.minor_w"
        <= Ev.gc_field outer "gc.minor_w" +. 1e-9))

(* ---- Prometheus rendering ----------------------------------------- *)

let test_prom_matches_snapshot () =
  let module T = Repro_engine.Telemetry in
  T.incr "proftest.requests" ~by:3;
  T.set "proftest.gauge" 7;
  T.add_time "proftest.elapsed" 0.25;
  let h = Repro_obs.Histogram.get "proftest.latency" in
  Repro_obs.Histogram.observe h 0.5;
  let prom = Repro_prof.Prom.render () in
  let contains line =
    List.exists (String.equal line) (String.split_on_char '\n' prom)
  in
  Alcotest.(check bool)
    "counter rendered" true
    (contains "hieropt_proftest_requests 3");
  Alcotest.(check bool)
    "set counter rendered" true
    (contains "hieropt_proftest_gauge 7");
  Alcotest.(check bool)
    "timer rendered" true
    (contains "hieropt_proftest_elapsed_seconds 0.25");
  Alcotest.(check bool)
    "histogram sum rendered" true
    (contains "hieropt_proftest_latency_seconds_sum 0.5");
  Alcotest.(check bool)
    "histogram count rendered" true
    (contains "hieropt_proftest_latency_seconds_count 1");
  (* the same snapshot surface the JSON /v1/metrics endpoint renders:
     values must agree between the two formats *)
  let json = Repro_serve.Api.metrics_json () in
  let module J = Repro_serve.Json in
  (match Option.bind (J.member "counters" json) (J.member "proftest.requests")
   with
  | Some (J.Num v) -> Alcotest.(check (float 0.0)) "json counter" 3.0 v
  | _ -> Alcotest.fail "counter missing from JSON metrics");
  match
    Option.bind (J.member "histograms" json) (J.member "proftest.latency")
    |> Fun.flip Option.bind (J.member "count")
  with
  | Some (J.Num v) -> Alcotest.(check (float 0.0)) "json histogram" 1.0 v
  | _ -> Alcotest.fail "histogram missing from JSON metrics"

let suite =
  [
    Alcotest.test_case "span reconstruction" `Quick test_span_reconstruction;
    Alcotest.test_case "unbalanced detection" `Quick
      test_unbalanced_detects_stray;
    Alcotest.test_case "utilization window" `Quick test_utilization_window;
    Alcotest.test_case "folded stacks" `Quick test_folded_output;
    Alcotest.test_case "slowest spans of a merged trace" `Quick
      test_slowest_merged;
    QCheck_alcotest.to_alcotest prop_self_time_telescopes;
    QCheck_alcotest.to_alcotest prop_gc_attribution;
    QCheck_alcotest.to_alcotest prop_merge_preserves_nesting;
    QCheck_alcotest.to_alcotest prop_merge_clock_monotone;
    QCheck_alcotest.to_alcotest prop_merge_validate_no_orphans;
    Alcotest.test_case "validate containment" `Quick test_validate_containment;
    Alcotest.test_case "clock offsets" `Quick test_endpoint_offsets_median;
    Alcotest.test_case "live gc capture" `Quick test_live_gc_capture_roundtrip;
    Alcotest.test_case "prometheus rendering" `Quick
      test_prom_matches_snapshot;
  ]
