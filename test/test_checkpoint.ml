(* Run-lifecycle tests: resume is a re-run over the eval cache.  Finished
   GA evaluations and variation-model entries are served from the cache
   and never simulated again, an unreadable cache starts cold with a
   warning, and the headline guarantee — interrupting the hierarchical
   flow at any phase boundary or mid-variation and running it again
   produces byte-identical artefacts. *)

module H = Hieropt
module E = Repro_engine
module Prng = Repro_util.Prng
module Nsga2 = Repro_moo.Nsga2

let with_tmpdir = Test_core.with_tmpdir
let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [f ()] and how far each named telemetry counter moved while it ran *)
let counted names f =
  let c0 = List.map E.Telemetry.counter names in
  let r = f () in
  (r, List.map2 (fun n c -> E.Telemetry.counter n - c) names c0)

let moved name f =
  match counted [ name ] f with r, [ n ] -> (r, n) | _ -> assert false

exception Stop

(* ---- GA: a re-run replays finished generations from the cache ---- *)

(* cheap 2-objective problem with a constraint, so rank/crowding and
   constraint domination all get exercised *)
let zdt1ish =
  Repro_moo.Problem.create ~name:"zdt1ish"
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
        constraint_violation = Float.max 0.0 (0.05 -. f1);
      })

let nsga_opts =
  { Nsga2.default_options with Nsga2.population = 16; generations = 12 }

let test_nsga2_stepwise_equals_optimise () =
  let a = Nsga2.optimise ~options:nsga_opts zdt1ish (Prng.create 5) in
  let st = Nsga2.init ~options:nsga_opts zdt1ish (Prng.create 5) in
  while Nsga2.generation st < nsga_opts.Nsga2.generations do
    Nsga2.step zdt1ish st
  done;
  Alcotest.(check bool) "identical final population" true
    (compare a (Nsga2.population st) = 0)

(* stopped after generation 5, then run again over the same cache: the
   uninterrupted population, and only the unfinished generations
   simulated *)
let test_nsga2_rerun_midrun () =
  let run ?stop_after cache =
    Nsga2.optimise ~options:nsga_opts
      ~evaluator:(Repro_moo.Problem.parallel_evaluator ~cache ())
      ~on_generation:(fun g _ -> if Some g = stop_after then raise Stop)
      zdt1ish (Prng.create 9)
  in
  let runs f = moved "eval.runs" f in
  let reference, reference_runs = runs (fun () -> run (E.Cache.create ())) in
  let cache = E.Cache.create () in
  let (), first_runs =
    runs (fun () ->
        match run ~stop_after:5 cache with
        | _ -> Alcotest.fail "expected the run to stop"
        | exception Stop -> ())
  in
  let resumed, rest_runs = runs (fun () -> run cache) in
  Alcotest.(check bool) "re-run matches uninterrupted" true
    (compare reference resumed = 0);
  Alcotest.(check bool) "stopped part-way" true
    (first_runs > 0 && first_runs < reference_runs);
  Alcotest.(check int) "no finished evaluation simulated again"
    reference_runs (first_runs + rest_runs)

(* ---- variation-model entries live in the cache ---- *)

let mc_options = { H.Variation_model.default_options with samples = 3 }

(* two sizings around the known-good default; the performance field only
   rides along in the entry *)
let mc_designs =
  let p = Repro_circuit.Topologies.vco_default in
  let perf =
    { Repro_spice.Vco_measure.kvco = 0.0; ivco = 0.0; jvco = 0.0; fmin = 0.0;
      fmax = 0.0 }
  in
  [|
    { H.Vco_problem.params = p; perf };
    {
      H.Vco_problem.params =
        { p with Repro_circuit.Topologies.wn = 1.25 *. p.wn };
      perf;
    };
  |]

let analyse ?on_entry ?progress cache =
  H.Variation_model.analyse_front ~options:mc_options ?on_entry ?progress
    ~cache:(cache, "test-salt") ~prng:(Prng.create 13) mc_designs

let trials f = moved "mc.trials" f

(* the uninterrupted entries, computed once into a cache both variation
   tests start from or compare with *)
let mc_reference =
  lazy
    (let cache = E.Cache.create () in
     let analysed = ref [] in
     let entries, n =
       trials (fun () ->
           analyse ~on_entry:(fun i _ -> analysed := i :: !analysed) cache)
     in
     Alcotest.(check int) "every trial run once" 6 n;
     Alcotest.(check (list int)) "every design analysed" [ 1; 0 ] !analysed;
     (cache, entries))

let test_variation_entries_cached () =
  let cache, reference = Lazy.force mc_reference in
  let called = ref 0 in
  let again, n = trials (fun () -> analyse ~on_entry:(fun _ _ -> incr called) cache) in
  Alcotest.(check int) "no trial run again" 0 n;
  Alcotest.(check int) "no design analysed again" 0 !called;
  Alcotest.(check bool) "identical entries" true (compare reference again = 0);
  (* a saved value of the wrong length (design 1's, its last float
     dropped) is a miss: that design alone is analysed again *)
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "eval.cache" in
  E.Cache.save cache path;
  let cut_value line =
    match String.split_on_char '\t' line with
    | [ kind; "1"; key; vals ]
      when String.starts_with ~prefix:"variation:" kind ->
      let vs = String.split_on_char ',' vals in
      String.concat "\t"
        [ kind; "1"; key;
          String.concat "," (List.filteri (fun i _ -> i < List.length vs - 1) vs) ]
    | _ -> line
  in
  write_file path
    (String.concat "\n"
       (List.map cut_value (String.split_on_char '\n' (read_file path))));
  let damaged = E.Cache.load path in
  let repaired, n = trials (fun () -> analyse damaged) in
  Alcotest.(check int) "one design's trials" mc_options.samples n;
  Alcotest.(check bool) "identical entries after the miss" true
    (compare reference repaired = 0)

(* stopped after the first design, then run again over the same cache:
   the second design sees the same PRNG split as in the uninterrupted
   run, and the first is not analysed again *)
let test_variation_interrupt_midfront () =
  let _, reference = Lazy.force mc_reference in
  let cache = E.Cache.create () in
  let (), first =
    trials (fun () ->
        match analyse ~on_entry:(fun _ _ -> raise Stop) cache with
        | _ -> Alcotest.fail "expected the run to stop"
        | exception Stop -> ())
  in
  Alcotest.(check int) "stopped after one design" mc_options.samples first;
  let started = ref [] in
  let resumed, rest =
    trials (fun () -> analyse ~progress:(fun i _ -> started := i :: !started) cache)
  in
  Alcotest.(check (list int)) "only the second design analysed" [ 1 ] !started;
  Alcotest.(check int) "only its trials run" mc_options.samples rest;
  Alcotest.(check bool) "seam-free entries" true (compare reference resumed = 0)

(* ---- an unreadable cache: warned, cold, and rewritten ---- *)

let test_unreadable_cache_cold_start () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "eval.cache" in
  write_file path "not an eval cache\n";
  let cfg =
    H.Hierarchy.make_config ~seed:2009 ~scale:Test_core.small_system_scale
      ~model_dir:dir ()
  in
  let r, warned =
    counted [ "cache.cold_start" ] (fun () ->
        H.Hierarchy.run_system_level cfg ~model:(Test_core.fixture ()))
  in
  Alcotest.(check (list int)) "cold-start warning emitted" [ 1 ] warned;
  Alcotest.(check string) "the cold run's Table 2"
    (read_file
       (List.find Sys.file_exists
          [ "system_level_2009.expected"; "test/system_level_2009.expected" ]))
    (Test_core.table2_text r);
  Alcotest.(check bool) "a valid cache written in its place" true
    (E.Cache.length (E.Cache.load path) > 0)

(* ---- the headline guarantee: flow-level interrupt + re-run ---- *)

let tiny_cfg ~model_dir =
  H.Hierarchy.make_config ~scale:H.Hierarchy.tiny_scale
    ~spec:H.Hierarchy.tiny_spec ~model_dir ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let tbl_files dir =
  List.sort compare
    (List.filter
       (fun f -> Filename.check_suffix f ".tbl")
       (Array.to_list (Sys.readdir dir)))

(* One model dir, starting empty, interrupted in turn after the circuit
   GA, at the second variation design, and after the variation, model
   and system-GA phases, then run plainly: every leg stops with
   [Interrupted] and leaves an eval cache; across the legs every GA
   evaluation and every Monte-Carlo trial of an uninterrupted run is
   simulated exactly once; and the final run writes the uninterrupted
   run's artefacts byte for byte. *)
let test_flow_interrupt_resume () =
  with_tmpdir @@ fun root ->
  let names = [ "eval.runs"; "mc.trials" ] in
  let ref_dir = Filename.concat root "ref" in
  E.Checkpoint.clear_interrupt ();
  let reference, ref_counts =
    counted names (fun () -> H.Hierarchy.run (tiny_cfg ~model_dir:ref_dir))
  in
  let essence (r : H.Hierarchy.result) =
    (r.H.Hierarchy.entries, r.H.Hierarchy.rows, r.H.Hierarchy.selected,
     r.H.Hierarchy.yield)
  in
  let dir = Filename.concat root "resumed" in
  let interrupted name ?interrupt_after ?progress () =
    E.Checkpoint.clear_interrupt ();
    let (), counts =
      counted names (fun () ->
          match
            H.Hierarchy.run ?progress ?interrupt_after (tiny_cfg ~model_dir:dir)
          with
          | _ -> Alcotest.failf "%s: expected Interrupted" name
          | exception E.Checkpoint.Interrupted -> ())
    in
    E.Checkpoint.clear_interrupt ();
    Alcotest.(check bool) (name ^ ": eval cache on disk") true
      (E.Cache.load_if_exists (Filename.concat dir "eval.cache") <> None);
    counts
  in
  let after phase =
    interrupted (H.Hierarchy.phase_name phase) ~interrupt_after:phase ()
  in
  let circuit_ga = after H.Hierarchy.Circuit_ga in
  (* mid-phase: an interrupt requested while the second design starts
     stops the run once that design is in the cache *)
  let armed = ref false in
  let mid_variation =
    interrupted "mid-variation"
      ~progress:(fun s ->
        if (not !armed) && contains s "variation model: design 2/" then begin
          armed := true;
          E.Checkpoint.request_interrupt ()
        end)
      ()
  in
  Alcotest.(check bool) "interrupt armed mid-variation" true !armed;
  let variation = after H.Hierarchy.Variation in
  let model = after H.Hierarchy.Model in
  let system_ga = after H.Hierarchy.System_ga in
  let resumed, last = counted names (fun () -> H.Hierarchy.run (tiny_cfg ~model_dir:dir)) in
  let legs = [ circuit_ga; mid_variation; variation; model; system_ga; last ] in
  Alcotest.(check (list int)) "every evaluation and trial simulated once"
    ref_counts
    (List.fold_left (List.map2 ( + )) [ 0; 0 ] legs);
  Alcotest.(check (list int)) "the circuit GA simulates, no Monte-Carlo"
    [ List.hd ref_counts - List.hd system_ga; 0 ] circuit_ga;
  Alcotest.(check (list int)) "mid-variation: two designs' trials only"
    [ 0; 2 * H.Hierarchy.tiny_scale.mc_samples ] mid_variation;
  Alcotest.(check (list int)) "model: nothing left to simulate" [ 0; 0 ] model;
  Alcotest.(check (list int)) "plain re-run: nothing left to simulate"
    [ 0; 0 ] last;
  Alcotest.(check bool) "results bit-identical" true
    (compare (essence reference) (essence resumed) = 0);
  Alcotest.(check (list string)) "the same .tbl files" (tbl_files ref_dir)
    (tbl_files dir);
  List.iter
    (fun f ->
      Alcotest.(check string) (f ^ " bytes")
        (read_file (Filename.concat ref_dir f))
        (read_file (Filename.concat dir f)))
    (tbl_files ref_dir)

let suite =
  [
    Alcotest.test_case "nsga2 stepwise = optimise" `Quick
      test_nsga2_stepwise_equals_optimise;
    Alcotest.test_case "nsga2 re-run over the cache mid-run" `Quick
      test_nsga2_rerun_midrun;
    Alcotest.test_case "variation entries served from the cache" `Quick
      test_variation_entries_cached;
    Alcotest.test_case "variation interrupt mid-front" `Quick
      test_variation_interrupt_midfront;
    Alcotest.test_case "unreadable eval cache starts cold" `Quick
      test_unreadable_cache_cold_start;
    Alcotest.test_case "flow interrupt/resume bit-identity" `Slow
      test_flow_interrupt_resume;
  ]
