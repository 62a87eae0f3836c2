(* repro_prof: span reconstruction, self-time / GC / utilization
   analyses, the multi-process trace merge, trace decoding and the
   [report] renderings — including QCheck properties over synthetic span
   forests and hostile trace files. *)

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

let merge_case_gen =
  QCheck.Gen.(
    let shift = map (fun i -> float_of_int i /. 1000.0) (int_range (-5000) 5000) in
    triple forest_gen forest_gen shift)

let merge_arb = QCheck.make merge_case_gen

let base_of events =
  { M.label = Some "coordinator"; pid = 1; epoch = 1000.0; trace = "t1"; events }

let prop_merge_preserves_nesting =
  QCheck.Test.make ~name:"merge preserves each process's span forest"
    ~count:200 merge_arb (fun (cspec, wspec, shift) ->
      let cevents = build ~pid:1 cspec in
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
    ~count:200 merge_arb (fun (cspec, wspec, shift) ->
      let cevents = build ~pid:1 cspec in
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
      let expected = shift *. 1e6 in
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

(* ---- trace files: encoding, decoding, merging --------------------- *)

module Json = Repro_util.Json

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "hieropt_prof" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let load_ok path =
  match M.load path with Ok p -> p | Error e -> Alcotest.fail e

(* a small traced run with a process label, exported the way every
   --trace run is *)
let exported_trace dir =
  let module Trace = Repro_obs.Trace in
  Trace.start ~gc:true ();
  Trace.set_process_label "coordinator";
  Trace.span "run" (fun () ->
      Trace.span "eval.batch" ~args:[ ("points", "2") ] (fun () ->
          Trace.counter "pool.busy_domains" 1;
          Trace.instant "eval.cache" ~args:[ ("hits", "0") ]));
  Trace.stop ();
  let path = Filename.concat dir "run.trace.json" in
  ignore (Trace.export path);
  path

(* Golden bytes of an exported trace.  Every line comes from
   Trace.event_json or Trace.process_name_json, which the tracer's own
   export uses too: string escaping (quote, backslash, newline, tab, a
   control character, UTF-8), shortest round-trip timestamps, instant
   scope, counter values as numbers, gc args, process metadata. *)
let test_export_golden () =
  with_dir @@ fun dir ->
  let ev name ph ts tid seq args =
    { Ev.name; ph; ts; pid = 7; tid; seq; args }
  in
  let events =
    [
      ev "run" 'B' 0.30000000000000004 0 0 [];
      ev "eval.batch" 'B' 12.5 1 3
        [ ("problem", "a\"b\\c\nd\te\001f \xc2\xb5s"); ("points", "4") ];
      ev "eval.cache" 'i' 18.835067749023438 1 4
        [ ("hits", "1"); ("misses", "3") ];
      ev "pool.busy_domains" 'C' 19.0 0 5 [ ("pool.busy_domains", "2") ];
      ev "eval.batch" 'E' 2000.25 1 6
        [
          ("gc.minor_w", "24430");
          ("gc.major_w", "0");
          ("gc.promoted_w", "0");
          ("gc.minor_c", "1");
          ("gc.major_c", "0");
        ];
    ]
  in
  let path = Filename.concat dir "golden.json" in
  Alcotest.(check int)
    "event count" 5
    (M.export ~path ~labels:[ (7, "coordinator") ] (List.rev events));
  Alcotest.(check string) "exported bytes"
    {|{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"coordinator"}},
{"name":"run","cat":"hieropt","ph":"B","ts":0.30000000000000004,"pid":7,"tid":0,"seq":0},
{"name":"eval.batch","cat":"hieropt","ph":"B","ts":12.5,"pid":7,"tid":1,"seq":3,"args":{"problem":"a\"b\\c\nd\te\u0001f µs","points":"4"}},
{"name":"eval.cache","cat":"hieropt","ph":"i","ts":18.835067749023438,"pid":7,"tid":1,"seq":4,"s":"t","args":{"hits":"1","misses":"3"}},
{"name":"pool.busy_domains","cat":"hieropt","ph":"C","ts":19,"pid":7,"tid":0,"seq":5,"args":{"pool.busy_domains":2}},
{"name":"eval.batch","cat":"hieropt","ph":"E","ts":2000.25,"pid":7,"tid":1,"seq":6,"args":{"gc.minor_w":"24430","gc.major_w":"0","gc.promoted_w":"0","gc.minor_c":"1","gc.major_c":"0"}}
]}
|} (read_file path)

(* One traced file given as both coordinator and worker: the merged
   trace names each pid once, from the label table — the coordinator's
   own metadata event must not be carried over next to its label. *)
let test_merge_names_each_process_once () =
  with_dir @@ fun dir ->
  let path = exported_trace dir in
  let base = load_ok path and worker = load_ok path in
  let events, labels = M.merge ~base ~workers:[ worker ] in
  let out = Filename.concat dir "merged.json" in
  let n = M.export ~path:out ~labels events in
  Alcotest.(check int) "no metadata among merged events" 0
    (List.length (List.filter (fun (e : Ev.t) -> e.ph = 'M') events));
  Alcotest.(check int) "event count excludes metadata"
    (2 * (List.length base.events - 1))
    n;
  let names =
    List.filter_map
      (fun (e : Ev.t) ->
        if e.ph = 'M' && e.name = "process_name" then Some e.pid else None)
      (load_ok out).events
  in
  Alcotest.(check (list int)) "one process_name per pid"
    [ base.pid; base.pid + 1 ]
    (List.sort compare names)

(* worker spans without any propagated parent: the trace context never
   reached the workers, and validate must say so *)
let test_validate_requires_linked_worker () =
  let cevents = build ~pid:1 [ S ("dist.dispatch", 0.0, []) ] in
  let wevents = build ~pid:77 ~t0:0.5 [ S ("dist.work", 0.0, []) ] in
  let worker =
    { M.label = Some "worker:9401"; pid = 77; epoch = 1000.0; trace = "t1";
      events = wevents }
  in
  let merged, _ = M.merge ~base:(base_of cevents) ~workers:[ worker ] in
  Alcotest.(check (list string))
    "unlinked worker spans reported"
    [ "no worker span carries a coordinator parent id" ]
    (M.validate ~coordinator_pid:1 merged);
  (* a coordinator-only trace has no worker spans to link *)
  Alcotest.(check (list string)) "no workers, no error" []
    (M.validate ~coordinator_pid:1 cevents)

let test_check_trace_id () =
  let tagged trace =
    base_of
      (List.map
         (fun (e : Ev.t) ->
           if e.ph = 'B' then { e with args = [ ("trace", trace) ] } else e)
         (build ~pid:2 [ S ("dist.work", 0.0, []) ]))
  in
  let base = base_of [] in
  Alcotest.(check bool) "same trace" true
    (M.check_trace_id ~base ~path:"w.json" (tagged "t1") = Ok ());
  Alcotest.(check bool) "untagged worker" true
    (M.check_trace_id ~base ~path:"w.json" (base_of []) = Ok ());
  match M.check_trace_id ~base ~path:"w.json" (tagged "other") with
  | Error msg ->
    Alcotest.(check string) "warning"
      "no span in w.json carries the coordinator's trace id t1 — is it from \
       this run? (merging anyway)"
      msg
  | Ok () -> Alcotest.fail "foreign trace not reported"

(* ---- report: golden text of the three renderings ------------------ *)

(* an older run, then the run the report covers: phases, two GA
   levels, the checkpoint events older builds journaled (no longer
   rendered), a warning, a surrogate outcome, the evaluation split, and
   a line torn by a kill *)
let golden_journal =
  String.concat "\n"
    [
      {|{"ts":1700000000,"run":"old","event":"run.start","fingerprint":"0000"}|};
      {|{"ts":1700000001,"run":"old","event":"run.finish","seconds":1}|};
      {|{"ts":1700000100,"run":"r1","event":"run.start","fingerprint":"2c0f21a0","seed":2009,"jobs":2}|};
      {|{"ts":1700000100.5,"run":"r1","event":"phase.start","phase":"circuit-ga"}|};
      {|{"ts":1700000101,"run":"r1","event":"ga.generation","label":"circuit","generation":0,"front_size":2,"spread":0,"hypervolume":0.023501}|};
      {|{"ts":1700000102,"run":"r1","event":"ga.generation","label":"circuit","generation":1,"front_size":7,"spread":0.58851234,"hypervolume":0.036380001}|};
      {|{"ts":1700000103,"run":"r1","event":"checkpoint","action":"flush","path":"snap"}|};
      {|{"ts":1700000104,"run":"r1","event":"evals","label":"circuit","avoided":10,"paid":30}|};
      {|{"ts":1700000105,"run":"r1","event":"phase.finish","phase":"circuit-ga","seconds":15.896}|};
      {|{"ts":1700000106,"run":"r1","event":"warning","key":"mc.fail","message":"sample 3 \"diverged\""}|};
      {|{"ts":1700000107,"run":"r1","event":"ga.generation","label":"system","generation":0,"front_size":1,"spread":0,"hypervolume":1.2841e-20}|};
      {|{"ts":1700000108,"run":"r1","event":"checkpoint","action":"flush","path":"snap"}|};
      {|{"ts":1700000108,"run":"r1","event":"checkpoint","action":"resume","path":"snap"}|};
      {|{"ts":1700000109,"run":"r1","event":"phase.finish","phase":"system-ga","seconds":0.089}|};
      {|{"ts":1700000110,"run":"r1","event":"run.finish","seconds":16.5,"eval_avoided":10,"eval_paid":30,"eval_cache_hits":6,"eval_runs":24}|};
      {|{"ts":1700000111,"run":"r1","event":"ga.gener|};
    ]

(* one process on two domains with gc args, a counter, an instant, a
   stray end, a nameless event the decoder skips, and two phases *)
let golden_trace =
  String.concat "\n"
    [
      {|{"displayTimeUnit":"ms","meta":{"pid":4242,"epoch":1700000000.25,"trace":"abc-4242","label":"coordinator"},"traceEvents":[|};
      {|{"name":"process_name","ph":"M","pid":4242,"tid":0,"args":{"name":"coordinator"}},|};
      {|{"name":"run","cat":"hieropt","ph":"B","ts":10,"pid":4242,"tid":0,"seq":0},|};
      {|{"name":"phase.circuit-ga","cat":"hieropt","ph":"B","ts":20,"pid":4242,"tid":0,"seq":1},|};
      {|{"name":"eval.batch","cat":"hieropt","ph":"B","ts":30,"pid":4242,"tid":0,"seq":2,"args":{"problem":"vco-sizing","points":"4"}},|};
      {|{"name":"pool.busy_domains","cat":"hieropt","ph":"C","ts":35,"pid":4242,"tid":0,"seq":3,"args":{"pool.busy_domains":2}},|};
      {|{"name":"pool.chunk","cat":"hieropt","ph":"B","ts":40,"pid":4242,"tid":0,"seq":4,"args":{"first":"0","items":"2"}},|};
      {|{"name":"pool.chunk","cat":"hieropt","ph":"B","ts":41,"pid":4242,"tid":1,"seq":5,"args":{"first":"2","items":"2"}},|};
      {|{"name":"mna.newton","cat":"hieropt","ph":"B","ts":50,"pid":4242,"tid":0,"seq":6,"args":{"n":"20"}},|};
      {|{"name":"mna.newton","cat":"hieropt","ph":"B","ts":60,"pid":4242,"tid":1,"seq":7,"args":{"n":"20"}},|};
      {|{"name":"mna.newton","cat":"hieropt","ph":"E","ts":250.5,"pid":4242,"tid":0,"seq":8,"args":{"gc.minor_w":"24430","gc.major_w":"12","gc.promoted_w":"3","gc.minor_c":"1","gc.major_c":"0"}},|};
      {|{"name":"pool.chunk","cat":"hieropt","ph":"E","ts":300,"pid":4242,"tid":0,"seq":9,"args":{"gc.minor_w":"30000","gc.major_w":"12","gc.promoted_w":"3","gc.minor_c":"1","gc.major_c":"0"}},|};
      {|{"name":"mna.newton","cat":"hieropt","ph":"E","ts":400,"pid":4242,"tid":1,"seq":10,"args":{"gc.minor_w":"18000","gc.major_w":"0","gc.promoted_w":"0","gc.minor_c":"0","gc.major_c":"0"}},|};
      {|{"name":"pool.chunk","cat":"hieropt","ph":"E","ts":420,"pid":4242,"tid":1,"seq":11,"args":{"gc.minor_w":"19500","gc.major_w":"0","gc.promoted_w":"0","gc.minor_c":"1","gc.major_c":"0"}},|};
      {|{"name":"eval.cache","cat":"hieropt","ph":"i","ts":425,"pid":4242,"tid":0,"seq":12,"s":"t","args":{"hits":"1","misses":"3"}},|};
      {|{"name":"eval.batch","cat":"hieropt","ph":"E","ts":430,"pid":4242,"tid":0,"seq":13,"args":{"gc.minor_w":"51000","gc.major_w":"12","gc.promoted_w":"3","gc.minor_c":"2","gc.major_c":"0"}},|};
      {|{"name":"phase.circuit-ga","cat":"hieropt","ph":"E","ts":440,"pid":4242,"tid":0,"seq":14,"args":{"gc.minor_w":"52000","gc.major_w":"12","gc.promoted_w":"3","gc.minor_c":"2","gc.major_c":"0"}},|};
      {|{"name":"stray","cat":"hieropt","ph":"E","ts":445,"pid":4242,"tid":2,"seq":15},|};
      {|{"cat":"hieropt","ph":"B","ts":446,"pid":4242,"tid":2,"seq":16},|};
      {|{"name":"phase.yield","cat":"hieropt","ph":"B","ts":450,"pid":4242,"tid":0,"seq":17},|};
      {|{"name":"pool.chunk","cat":"hieropt","ph":"B","ts":460,"pid":4242,"tid":0,"seq":18,"args":{"first":"0","items":"30"}},|};
      {|{"name":"pool.chunk","cat":"hieropt","ph":"E","ts":700,"pid":4242,"tid":0,"seq":19,"args":{"gc.minor_w":"7000","gc.major_w":"0","gc.promoted_w":"0","gc.minor_c":"0","gc.major_c":"0"}},|};
      {|{"name":"phase.yield","cat":"hieropt","ph":"E","ts":720,"pid":4242,"tid":0,"seq":20,"args":{"gc.minor_w":"7500","gc.major_w":"0","gc.promoted_w":"0","gc.minor_c":"0","gc.major_c":"0"}},|};
      {|{"name":"run","cat":"hieropt","ph":"E","ts":800,"pid":4242,"tid":0,"seq":21,"args":{"gc.minor_w":"60000","gc.major_w":"12","gc.promoted_w":"3","gc.minor_c":"3","gc.major_c":"0"}}|};
      {|]}|};
      "";
    ]

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let r = f ppf in
  Format.pp_print_flush ppf ();
  (r, Buffer.contents buf)

let expected_journal =
  {|run r1  (fingerprint 2c0f21a0, 13 events)

phase breakdown:
  circuit-ga        15.896 s   99.4%
  system-ga          0.089 s    0.6%
  total             15.985 s

circuit-level convergence:
   gen  front        spread   hypervolume
     0      2             0      0.023501
     1      7       0.58851       0.03638

system-level convergence:
   gen  front        spread   hypervolume
     0      1             0    1.2841e-20

warnings (1):
  [mc.fail] sample 3 "diverged"

surrogate pre-screen:
  label     avoided     paid    ratio
  circuit        10       30    25.0%

evals:
  requested        40
  avoided          10   25.0%  (surrogate pre-screen)
  cached            6   15.0%  (eval cache)
  simulated        24   60.0%

run finished in 16.500 s
|}

let expected_trace =
  {|
slowest spans (9 total, 1 unbalanced events):
      duration  span                       pid   tid         start
      0.790 ms  run                       4242     0      0.010 ms
      0.420 ms  phase.circuit-ga          4242     0      0.020 ms
      0.400 ms  eval.batch                4242     0      0.030 ms
|}

let expected_profile_body =
  {|  (22 events, 9 spans, 1 unbalanced events)
wall     0.790 ms;  1.169 ms (148.0%) attributed to 6 span names (concurrent domains can push this past 100%)

self-time by span name (top 4 of 6):
  span                   count        total         self   self%
  mna.newton                 2     0.540 ms     0.540 ms   68.4%
  pool.chunk                 3     0.879 ms     0.339 ms   42.8%
  eval.batch                 1     0.400 ms     0.140 ms   17.7%
  run                        1     0.790 ms     0.100 ms   12.7%

allocation by span name (top 4 of 6, minor words):
  span                         self        total  minor gcs  major gcs
  mna.newton              4.243e+04    4.243e+04          1          0
  eval.batch                2.1e+04      5.1e+04          2          0
  pool.chunk              1.407e+04     5.65e+04          2          0
  phase.circuit-ga             1000      5.2e+04          2          0

domain utilization (pool busy-time over window):
  whole run           coordinator/d0  63.3%  coordinator/d1  48.0%
  phase.circuit-ga    coordinator/d0  61.9%  coordinator/d1  90.2%
  phase.yield         coordinator/d0  88.9%  coordinator/d1   0.0%
|}

let expected_folded =
  {|coordinator/t0;run 100
coordinator/t0;run;phase.circuit-ga 20
coordinator/t0;run;phase.circuit-ga;eval.batch 140
coordinator/t0;run;phase.circuit-ga;eval.batch;pool.chunk 60
coordinator/t0;run;phase.circuit-ga;eval.batch;pool.chunk;mna.newton 201
coordinator/t0;run;phase.yield 30
coordinator/t0;run;phase.yield;pool.chunk 240
coordinator/t1;pool.chunk 39
coordinator/t1;pool.chunk;mna.newton 340
|}

let test_report_journal () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "run.journal" in
  write_file path golden_journal;
  let events =
    match Repro_obs.Journal.read path with
    | Ok events -> events
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "torn last line skipped"
    (List.length (String.split_on_char '\n' golden_journal) - 1)
    (List.length events);
  let r, text = render (fun ppf -> Repro_prof.Report.journal ppf events) in
  Alcotest.(check bool) "ok" true (r = Ok ());
  Alcotest.(check string) "journal report" expected_journal text

(* a run.finish carrying the simulator counters gets the simulator
   block after the evaluation split *)
let test_report_journal_simulator () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "run.journal" in
  write_file path
    (String.concat "\n"
       [
         {|{"ts":1,"run":"r2","event":"run.start","fingerprint":"ab"}|};
         {|{"ts":2,"run":"r2","event":"run.finish","seconds":40.25,"eval_avoided":0,"eval_paid":0,"eval_cache_hits":4,"eval_runs":156,"vco_characterisations":156,"vco_extensions":298,"vco_extensions_failed":123,"tran_runs":766,"tran_steps":2400000,"tran_halvings":3,"tran_newton":5220000}|};
         "";
       ]);
  let events =
    match Repro_obs.Journal.read path with
    | Ok events -> events
    | Error e -> Alcotest.fail e
  in
  let r, text = render (fun ppf -> Repro_prof.Report.journal ppf events) in
  Alcotest.(check bool) "ok" true (r = Ok ());
  Alcotest.(check string) "simulator block"
    {|run r2  (fingerprint ab, 2 events)

evals:
  requested       160
  avoided           0    0.0%  (surrogate pre-screen)
  cached            4    2.5%  (eval cache)
  simulated       156   97.5%

simulator:
  characterisations         156
  window extensions         298  (123 still unresolved)
  transients                766
  accepted steps        2400000  (3 rejected)
  Newton iterations     5220000  (2.17 per step)

run finished in 40.250 s
|}
    text

(* a run.finish that also carries the behavioural PLL counters gets one
   more simulator line *)
let test_report_journal_pll_line () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "run.journal" in
  write_file path
    (String.concat "\n"
       [
         {|{"ts":1,"run":"r3","event":"run.start","fingerprint":"cd"}|};
         {|{"ts":2,"run":"r3","event":"run.finish","seconds":4.5,"eval_avoided":0,"eval_paid":0,"eval_cache_hits":0,"eval_runs":600,"vco_characterisations":1,"vco_extensions":0,"vco_extensions_failed":0,"tran_runs":3,"tran_steps":7200,"tran_halvings":0,"tran_newton":21000,"pll_sims":2126,"pll_steps":85040000}|};
         "";
       ]);
  let events =
    match Repro_obs.Journal.read path with
    | Ok events -> events
    | Error e -> Alcotest.fail e
  in
  let r, text = render (fun ppf -> Repro_prof.Report.journal ppf events) in
  Alcotest.(check bool) "ok" true (r = Ok ());
  Alcotest.(check string) "simulator block with the PLL line"
    {|run r3  (fingerprint cd, 2 events)

evals:
  requested       600
  avoided           0    0.0%  (surrogate pre-screen)
  cached            0    0.0%  (eval cache)
  simulated       600  100.0%

simulator:
  characterisations           1
  window extensions           0  (0 still unresolved)
  transients                  3
  accepted steps           7200  (0 rejected)
  Newton iterations       21000  (2.92 per step)
  behavioural PLL          2126  (85040000 steps)

run finished in 4.500 s
|}
    text

(* a run.finish that also carries the transients' domain-seconds gets
   their unit cost per Newton iteration; the two goldens above cover
   journals without the field *)
let test_report_journal_transient_seconds () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "run.journal" in
  write_file path
    (String.concat "\n"
       [
         {|{"ts":1,"run":"r4","event":"run.start","fingerprint":"ef"}|};
         {|{"ts":2,"run":"r4","event":"run.finish","seconds":38.25,"eval_avoided":0,"eval_paid":0,"eval_cache_hits":0,"eval_runs":156,"vco_characterisations":156,"vco_extensions":298,"vco_extensions_failed":123,"tran_runs":706,"tran_steps":2409600,"tran_halvings":0,"tran_newton":6637343,"pll_sims":2126,"pll_steps":85040000,"tran_seconds":72.7}|};
         "";
       ]);
  let events =
    match Repro_obs.Journal.read path with
    | Ok events -> events
    | Error e -> Alcotest.fail e
  in
  let r, text = render (fun ppf -> Repro_prof.Report.journal ppf events) in
  Alcotest.(check bool) "ok" true (r = Ok ());
  Alcotest.(check string) "simulator block with the transient seconds"
    {|run r4  (fingerprint ef, 2 events)

evals:
  requested       156
  avoided           0    0.0%  (surrogate pre-screen)
  cached            0    0.0%  (eval cache)
  simulated       156  100.0%

simulator:
  characterisations         156
  window extensions         298  (123 still unresolved)
  transients                706
  accepted steps        2409600  (0 rejected)
  Newton iterations     6637343  (2.75 per step)
  transient seconds       72.70  (10.95 us per Newton iteration)
  behavioural PLL          2126  (85040000 steps)

run finished in 38.250 s
|}
    text

(* a run.finish that also carries the GC fields gets the memory line,
   with the promoted words per transient when the run ran any; the
   goldens above cover journals without the fields *)
let test_report_journal_memory () =
  with_dir @@ fun dir ->
  let report finish =
    let path = Filename.concat dir "run.journal" in
    write_file path
      (String.concat "\n"
         [ {|{"ts":1,"run":"r5","event":"run.start","fingerprint":"01"}|};
           finish; "" ]);
    let events =
      match Repro_obs.Journal.read path with
      | Ok events -> events
      | Error e -> Alcotest.fail e
    in
    let r, text = render (fun ppf -> Repro_prof.Report.journal ppf events) in
    Alcotest.(check bool) "ok" true (r = Ok ());
    text
  in
  Alcotest.(check string) "memory line of a flow"
    {|run r5  (fingerprint 01, 2 events)

evals:
  requested       156
  avoided           0    0.0%  (surrogate pre-screen)
  cached            0    0.0%  (eval cache)
  simulated       156  100.0%

simulator:
  characterisations         156
  window extensions         298  (123 still unresolved)
  transients                706
  accepted steps        2409600  (0 rejected)
  Newton iterations     6637343  (2.75 per step)
  transient seconds       72.70  (10.95 us per Newton iteration)
  behavioural PLL          2126  (85040000 steps)

memory: 11.25 MB peak major heap, 54.02 Mwords promoted, 79.71 Mwords major (360 major collections), 76517 promoted per transient

run finished in 38.250 s
|}
    (report
       {|{"ts":2,"run":"r5","event":"run.finish","seconds":38.25,"eval_avoided":0,"eval_paid":0,"eval_cache_hits":0,"eval_runs":156,"vco_characterisations":156,"vco_extensions":298,"vco_extensions_failed":123,"tran_runs":706,"tran_steps":2409600,"tran_halvings":0,"tran_newton":6637343,"pll_sims":2126,"pll_steps":85040000,"tran_seconds":72.7,"gc_promoted_words":54021093,"gc_major_words":79714591,"gc_major_collections":360,"gc_top_heap_words":1474204}|});
  Alcotest.(check string) "memory line of a run without transients"
    {|run r5  (fingerprint 01, 2 events)

evals:
  requested        42
  avoided           0    0.0%  (surrogate pre-screen)
  cached            0    0.0%  (eval cache)
  simulated        42  100.0%

memory: 3.13 MB peak major heap, 0.52 Mwords promoted, 0.61 Mwords major (12 major collections)

run finished in 1.500 s
|}
    (report
       {|{"ts":2,"run":"r5","event":"run.finish","seconds":1.5,"eval_avoided":0,"eval_paid":0,"eval_cache_hits":0,"eval_runs":42,"gc_promoted_words":520000,"gc_major_words":610000,"gc_major_collections":12,"gc_top_heap_words":410000}|})

let test_report_trace () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "golden.trace.json" in
  write_file path golden_trace;
  let (), text =
    render (fun ppf -> Repro_prof.Report.trace ppf ~top:3 (load_ok path))
  in
  Alcotest.(check string) "slowest spans" expected_trace text

let test_report_profile () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "golden.trace.json" in
  let folded = Filename.concat dir "golden.folded" in
  write_file path golden_trace;
  let r, text =
    render (fun ppf ->
        Repro_prof.Report.profile ppf ~path ~top:4 ~folded (load_ok path))
  in
  Alcotest.(check bool) "ok" true (r = Ok ());
  Alcotest.(check string) "profile"
    ("\nprofile of " ^ path ^ expected_profile_body ^ "\nfolded stacks -> "
   ^ folded ^ "\n")
    text;
  Alcotest.(check string) "folded file" expected_folded (read_file folded)

let test_report_errors () =
  with_dir @@ fun dir ->
  let r, text = render (fun ppf -> Repro_prof.Report.journal ppf []) in
  Alcotest.(check bool) "empty journal" true (r = Error "journal is empty");
  Alcotest.(check string) "nothing printed" "" text;
  let missing = Filename.concat dir "missing" in
  Alcotest.(check bool) "unreadable journal" true
    (Result.is_error (Repro_obs.Journal.read missing));
  (match M.load missing with
  | Error msg ->
    Alcotest.(check bool) "unreadable trace names the file" true
      (String.starts_with ~prefix:("cannot read trace " ^ missing) msg)
  | Ok _ -> Alcotest.fail "missing trace loaded");
  Alcotest.(check bool) "not JSON" true
    (M.parse ~path:"t" "{" |> Result.is_error);
  Alcotest.(check bool) "no traceEvents" true
    (M.parse ~path:"t" {|{"meta":{}}|}
    = Error "trace t: no traceEvents array");
  let empty = Result.get_ok (M.parse ~path:"t" {|{"traceEvents":[]}|}) in
  let r, _ =
    render (fun ppf -> Repro_prof.Report.profile ppf ~path:"t" ~top:3 empty)
  in
  Alcotest.(check bool) "no spans" true
    (r = Error "trace t contains no spans");
  let path = Filename.concat dir "golden.trace.json" in
  write_file path golden_trace;
  let folded = Filename.concat dir "no/such/dir/out.folded" in
  let r, _ =
    render (fun ppf ->
        Repro_prof.Report.profile ppf ~path ~top:3 ~folded (load_ok path))
  in
  match r with
  | Error msg ->
    Alcotest.(check bool) "unwritable folded file" true
      (String.starts_with ~prefix:("cannot write " ^ folded) msg)
  | Ok () -> Alcotest.fail "folded write to a missing directory succeeded"

(* ---- crash-freedom of the decoders -------------------------------- *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

(* a decoded trace must also survive both renderers *)
let decodes_and_renders body =
  match M.parse ~path:"t" body with
  | Error _ -> true
  | Ok p ->
    Repro_prof.Report.trace null_ppf ~top:5 p;
    ignore (Repro_prof.Report.profile null_ppf ~path:"t" ~top:5 p);
    true

(* arbitrary bytes, and short strings over JSON's own alphabet, which
   get much further into the parser *)
let prop_trace_decoder_bytes =
  let json_chars =
    List.of_seq (String.to_seq {|{}[]":,0123456789.eE-+tnulfasr\ |})
  in
  QCheck.Test.make ~name:"trace decoder never raises on arbitrary bytes"
    ~count:500
    QCheck.(
      oneof
        [
          string;
          string_gen_of_size Gen.(int_bound 40) (Gen.oneofl json_chars);
        ])
    decodes_and_renders

let test_trace_decoder_prefixes () =
  with_dir @@ fun dir ->
  let full = read_file (exported_trace dir) in
  for n = 0 to String.length full do
    if not (decodes_and_renders (String.sub full 0 n)) then
      Alcotest.failf "prefix %d raised" n
  done;
  match M.parse ~path:"t" full with
  | Ok p ->
    Alcotest.(check (option string)) "label" (Some "coordinator") p.label;
    Alcotest.(check int) "events (metadata included)" 7 (List.length p.events)
  | Error e -> Alcotest.fail e

let json_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let str = string_size ~gen:printable (int_bound 5) in
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun x -> Json.Num x) float;
                 map (fun s -> Json.Str s) str;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map
                     (fun l -> Json.Arr l)
                     (list_size (int_bound 3) (self (n / 2))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 3) (pair str (self (n / 2)))) );
               ]))

(* every field either well-typed or an arbitrary JSON value *)
let wrong_types_gen =
  QCheck.Gen.(
    let either good = oneof [ good; json_gen ] in
    let str choices = map (fun s -> Json.Str s) (oneofl choices) in
    let num =
      map
        (fun x -> Json.Num x)
        (oneof [ float; map float_of_int (int_range (-3) 40) ])
    in
    let obj fields =
      map
        (fun fields -> Json.Obj fields)
        (flatten_l
           (List.map
              (fun (k, good) -> map (fun v -> (k, v)) (either good))
              fields))
    in
    let event =
      obj
        [
          ("name", str [ "run"; "phase.x"; "pool.chunk" ]);
          ("ph", str [ "B"; "E"; "i"; "C"; "M"; "BE" ]);
          ("ts", num);
          ("pid", num);
          ("tid", num);
          ("seq", num);
          ( "args",
            map
              (fun v -> Json.Obj [ ("parent", Json.Str "0"); ("name", v) ])
              json_gen );
        ]
    in
    let meta =
      obj
        [
          ("pid", num);
          ("epoch", num);
          ("trace", str [ ""; "t1" ]);
          ("label", str [ "coordinator"; "worker:9401" ]);
        ]
    in
    map2
      (fun meta events -> Json.Obj [ ("meta", meta); ("traceEvents", events) ])
      (either meta)
      (either (map (fun l -> Json.Arr l) (list_size (int_bound 8) event))))

let prop_trace_decoder_wrong_types =
  QCheck.Test.make ~name:"trace decoder never raises on wrong field types"
    ~count:300
    (QCheck.make ~print:Json.to_string wrong_types_gen)
    (fun doc -> decodes_and_renders (Json.to_string doc))

(* ---- a traced flow, as `hieropt flow --trace` records it ---- *)

(* The smallest flow that still finds a two-design front at the default
   seed, at -j 2 under [Trace.record] (the CLI's --trace path) with a
   journal in its model dir: its decoded trace, journal events and
   profile text, shared by the two tests below. *)
let traced_flow =
  lazy
    (with_dir @@ fun dir ->
     let cfg =
       Hieropt.Hierarchy.make_config
         ~scale:
           {
             Hieropt.Hierarchy.vco_population = 4;
             vco_generations = 1;
             mc_samples = 2;
             front_max = 2;
             pll_population = 4;
             pll_generations = 1;
             yield_samples = 4;
           }
         ~spec:Hieropt.Hierarchy.tiny_spec ~model_dir:dir ()
     in
     let path = Filename.concat dir "trace.json" in
     Test_core.with_jobs 2 (fun () ->
         Repro_obs.Trace.record ~label:"coordinator" path
           ~on_export:(function Ok _ -> () | Error e -> Alcotest.fail e)
           (fun () -> ignore (Hieropt.Hierarchy.run cfg)));
     let p = load_ok path in
     let journal =
       match Repro_obs.Journal.read (Filename.concat dir "run.journal") with
       | Ok events -> events
       | Error e -> Alcotest.fail e
     in
     match render (fun ppf -> Repro_prof.Report.profile ppf ~path ~top:10 p) with
     | Ok (), profile -> (p, journal, profile)
     | Error e, _ -> Alcotest.fail e)

let test_traced_flow_trace_and_journal () =
  let p, journal, _ = Lazy.force traced_flow in
  Alcotest.(check bool) "non-empty trace" true (p.M.events <> []);
  Alcotest.(check int) "begin/end balanced on every thread" 0
    (Ev.unbalanced p.M.events);
  let spans =
    List.filter_map
      (fun (e : Ev.t) -> if e.ph = 'B' then Some e.name else None)
      p.M.events
  in
  List.iter
    (fun want ->
      Alcotest.(check bool) ("span " ^ want) true (List.mem want spans))
    [ "phase.circuit-ga"; "nsga2.generation"; "eval.batch" ];
  let event j =
    match Json.member "event" j with Some (Json.Str e) -> e | _ -> ""
  in
  List.iter
    (fun want ->
      Alcotest.(check bool) ("journal event " ^ want) true
        (List.exists (fun j -> event j = want) journal))
    [ "run.start"; "phase.finish"; "ga.generation"; "run.finish" ];
  Alcotest.(check bool) "a generation records its hypervolume" true
    (List.exists
       (fun j ->
         event j = "ga.generation" && Json.member "hypervolume" j <> None)
       journal);
  List.iter
    (fun field ->
      Alcotest.(check bool) ("run.finish records " ^ field) true
        (List.exists
           (fun j -> event j = "run.finish" && Json.member field j <> None)
           journal))
    [ "gc_promoted_words"; "gc_major_words"; "gc_major_collections";
      "gc_top_heap_words" ]

(* the share [report --profile] prints as "(NN.N%) attributed" *)
let attributed_share text =
  let marker = "%) attributed" in
  let rec find i =
    if i + String.length marker > String.length text then None
    else if String.sub text i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  Option.bind (find 0) (fun stop ->
      Option.bind (String.rindex_from_opt text stop '(') (fun start ->
          float_of_string_opt (String.sub text (start + 1) (stop - start - 1))))

let test_traced_flow_attribution () =
  let _, _, profile = Lazy.force traced_flow in
  match attributed_share profile with
  | None -> Alcotest.failf "no attributed share in:\n%s" profile
  | Some share ->
    if share < 95.0 then
      Alcotest.failf "only %.1f%% of the wall time attributed" share

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
    Alcotest.test_case "live gc capture" `Quick test_live_gc_capture_roundtrip;
    Alcotest.test_case "export golden bytes" `Quick test_export_golden;
    Alcotest.test_case "merge names each process once" `Quick
      test_merge_names_each_process_once;
    Alcotest.test_case "validate requires a linked worker span" `Quick
      test_validate_requires_linked_worker;
    Alcotest.test_case "trace id check" `Quick test_check_trace_id;
    Alcotest.test_case "report journal golden" `Quick test_report_journal;
    Alcotest.test_case "report trace golden" `Quick test_report_trace;
    Alcotest.test_case "report profile golden" `Quick test_report_profile;
    Alcotest.test_case "report errors" `Quick test_report_errors;
    QCheck_alcotest.to_alcotest prop_trace_decoder_bytes;
    Alcotest.test_case "trace decoder on every prefix" `Quick
      test_trace_decoder_prefixes;
    QCheck_alcotest.to_alcotest prop_trace_decoder_wrong_types;
    Alcotest.test_case "report journal simulator block" `Quick
      test_report_journal_simulator;
    Alcotest.test_case "report journal behavioural PLL line" `Quick
      test_report_journal_pll_line;
    Alcotest.test_case "traced flow trace and journal" `Slow
      test_traced_flow_trace_and_journal;
    Alcotest.test_case "traced flow profile attribution" `Slow
      test_traced_flow_attribution;
    Alcotest.test_case "report journal transient seconds" `Quick
      test_report_journal_transient_seconds;
    Alcotest.test_case "report journal memory line" `Quick
      test_report_journal_memory;
  ]
