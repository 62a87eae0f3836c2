(* perfbench: the end-to-end benchmark of the hierarchical flow.

     main.exe --workload flow|serve --seed N --seconds S --trace 0|1

   Runs from the root of a source checkout (perfbench/run.sh builds the
   program and starts this there).  Prints one metadata line, then the
   result line: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1.  Exits 1 when an output check fails.
   README.md says why each workload and metric exists. *)

module H = Hieropt
module HH = Hieropt.Hierarchy
module E = Repro_engine
module J = Repro_serve.Json
module V = Repro_spice.Vco_measure
module Hist = Repro_obs.Histogram
module Sample = Perfbench.Sample
module Spans = Perfbench.Spans
module Report = Perfbench.Report

type workload = Flow | Serve

let workload_name = function Flow -> "flow" | Serve -> "serve"

(* ---- sizes ----------------------------------------------------------- *)

(* flow: the paper's experiment at a size that ends in a selected,
   verified design, with the circuit GA and the Monte-Carlo taking most
   of the time as at paper scale.  The system GA and the yield MC cost
   little here, so they run larger than the tiny preset. *)
let flow_scale =
  {
    HH.vco_population = 24;
    vco_generations = 4;
    mc_samples = 8;
    front_max = 5;
    pll_population = 40;
    pll_generations = 12;
    yield_samples = 200;
  }

(* flow always runs the paper's seed.  At a budget that fits a run, the
   circuit GA is far from converged, and its front moves with the seed:
   on seeds 1-6 the hv of a 40x3 circuit GA read 0.11-0.25 and the
   yield 0.65-1.0, a spread no bound of 25% can hold.  A fixed seed
   keeps the flow's artefacts identical from run to run, so [hv] and
   [yield] gate them exactly and [wall_s] carries only run-to-run
   noise.  serve takes its seed from the command line. *)
let flow_seed = 2009

(* serve: the system level over the committed bench-scale fixture, with
   the paper's 500 yield samples and half its 60x20 GA.  Host speed
   drifts in phases of one to three minutes; at 60x10 a run takes about
   9 s, so a set of ten runs mostly stays inside one phase.  The
   circuit-level fields are not used by [run_system_level]. *)
let serve_scale =
  {
    HH.tiny_scale with
    pll_population = 60;
    pll_generations = 10;
    yield_samples = 500;
  }

let scale_of = function Flow -> flow_scale | Serve -> serve_scale

(* The paper's spec (100 MHz reference, lock < 1 us, current < 15 mA)
   with the VCO band narrowed so a small circuit GA covers it.  The
   repo's [tiny_spec] narrows the band too, but its 50 MHz reference
   leaves lock times near the 1 us budget: 40x12 system GAs over tiny
   models then selected designs with yields of 0.58-0.79. *)
let flow_spec =
  {
    H.Spec.default with
    f_out_low = 300e6;
    f_out_high = 500e6;
    f_target = 400e6;
    n_div = 4;
  }

let spec_of = function Flow -> flow_spec | Serve -> H.Spec.default

let spec_label = function
  | Flow -> "default with a 300-500 MHz band, 400 MHz target"
  | Serve -> "default"

let workload_seed w seed = match w with Flow -> flow_seed | Serve -> seed

(* flow runs with the CLI default, one domain per core.  serve runs
   with one: its operations are short, a second domain only adds
   scheduling noise, and the model server needs the other core. *)
let jobs_of = function
  | Flow -> Domain.recommended_domain_count ()
  | Serve -> 1

let setup_repeats = 9

(* The ideal corner of the hypervolume boxes.  The circuit front is
   (jitter s, current A, -gain Hz/V); 2 GHz/V is above any gain the
   ring VCO reaches.  PLL objectives (lock s, jitter s, current A) are
   bounded below by 0. *)
let circuit_ideal = [| 0.0; 0.0; -2e9 |]
let system_ideal = [| 0.0; 0.0; 0.0 |]

(* Counts that repeat exactly for a seed, checked by running each
   workload twice on one seed; a later claim may rest only on these.
   The solver counts repeat at jobs 1 only: at jobs 2 two flow runs read
   solver.symbolic as 2 and 1 and solver.refactorise one apart, likely
   the domains racing on the symbolic-factorisation registry.  GC counts
   move with allocation timing and socket reads and never repeat. *)
let steady_counts =
  [ "spice.evals"; "spice.mc_trials"; "spice.mc_failures"; "spice.tran_steps";
    "engine.jobs"; "engine.cache_hits"; "moo.evals_requested";
    "moo.evals_simulated"; "serve.queries"; "serve.points"; "serve.fallbacks" ]

let solver_counts =
  [ "linalg.symbolic"; "linalg.refactorise"; "linalg.refactorise_fallback" ]

let gc_counts =
  [ "gc.minor_collections"; "gc.major_collections"; "gc.minor_mwords";
    "gc.promoted_mwords" ]

let count_exact ~jobs name =
  List.mem name steady_counts || (jobs = 1 && List.mem name solver_counts)

(* ---- files and processes ---------------------------------------------- *)

let fixture_dir = Filename.concat "perfbench" "fixture"
let out_dir = Filename.concat "perfbench" "out"

let cli_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "hieropt_cli.exe")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* every child still running; killed and reaped at exit, so a run that
   fails half-way leaves no process behind *)
let children : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  children := List.filter (( <> ) pid) !children;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        !children)

(* [prog args] with its stdout on a pipe *)
let spawn prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.append [| prog |] args) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  children := pid :: !children;
  (pid, Unix.in_channel_of_descr r)

let read_rest ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in_noerr ic;
  lines

let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some pid -> Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
             float_of_int kb /. 1024.))
  |> function
  | Some mb -> mb
  | None -> failwith ("no VmHWM line in " ^ path)

(* ---- the model server ---------------------------------------------- *)

(* the repo's own [serve] subcommand with one reactor, the way
   [system --remote] users run it; it announces its ephemeral port on
   its first stdout line *)
type server = { pid : int; port : int; out : in_channel }

let start_server () =
  let pid, out =
    spawn (cli_exe ())
      [| "serve"; "--model-dir"; fixture_dir; "--port"; "0"; "--reactors"; "1" |]
  in
  (* "serving DIR on http://HOST:PORT (N reactors)" *)
  let port =
    match input_line out with
    | exception End_of_file -> None
    | line ->
      Scanf.sscanf_opt line "serving %s on http://%[^:]:%d" (fun _ _ port -> port)
  in
  match port with
  | Some port -> { pid; port; out }
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (read_rest out);
    ignore (reap pid);
    failwith "model server did not announce its port"

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (read_rest s.out);
  ignore (reap s.pid)

(* ---- counts and the program's lazy handles ---------------------------- *)

(* Counters, timers and histogram sums when the timed call starts; the
   bench reports every count as a delta over the call, so set-up work
   never shows in it. *)
let base_counts : (string, float) Hashtbl.t = Hashtbl.create 64
let base_sums : (string, float) Hashtbl.t = Hashtbl.create 16

let mark_baseline () =
  Hashtbl.reset base_counts;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace base_counts k
        (match v with `Counter n -> float_of_int n | `Timer t -> t))
    (E.Telemetry.snapshot ());
  Hashtbl.reset base_sums;
  List.iter (fun (k, h) -> Hashtbl.replace base_sums k (Hist.stats h).sum) (Hist.all ())

let base tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
let counter name = E.Telemetry.counter name - int_of_float (base base_counts name)
let timer name = E.Telemetry.timer name -. base base_counts name
let hist_sum name = (Hist.stats (Hist.get name)).sum -. base base_sums name

(* The program creates three histogram handles lazily, on first use, from
   whichever pool domain gets there first: eval.duration in
   [Repro_moo.Problem], the solver timers in [Repro_spice.Mna], the
   queue wait in [Repro_engine.Pool].  Two domains forcing one handle at
   once raise CamlinternalLazy.Undefined under OCaml 5; at jobs 2 that
   killed 3 of about 25 flow runs.  Until the program creates them
   eagerly, the set-up forces each on a single domain. *)
let force_lazy_handles () =
  let module P = Repro_moo.Problem in
  let p =
    P.create ~name:"perfbench-warm-up" ~bounds:[| (0.0, 1.0) |]
      ~objective_names:[| "x" |] (fun x ->
        { P.objectives = [| x.(0) |]; constraint_violation = 0.0 })
  in
  (* a one-point batch runs on the calling domain *)
  E.Pool.with_pool ~size:1 (fun pool ->
      ignore (P.parallel_evaluator ~pool () p [| [| 0.5 |] |]));
  (* only helper domains force the queue-wait handle, so it races from
     two helpers (jobs >= 3) on; waiting for a fresh domain to be
     scheduled would add milliseconds of noise to every set-up *)
  if E.Config.jobs () >= 3 then
    E.Pool.with_pool ~size:2 (fun pool ->
        let finished = Atomic.make false in
        E.Pool.submit pool (fun () -> Atomic.set finished true);
        while not (Atomic.get finished) do
          Domain.cpu_relax ()
        done);
  (* a few sparse factorisations of an RC low-pass *)
  let net = Repro_circuit.Netlist.create () in
  Repro_circuit.Netlist.vsource net "V1" "in" "0" (Repro_circuit.Source.Dc 1.0);
  Repro_circuit.Netlist.resistor net "R1" "in" "out" 1e3;
  Repro_circuit.Netlist.capacitor net "C1" "out" "0" 1e-12;
  match
    Repro_spice.Transient.run_result ~solver:E.Config.Sparse
      (Repro_spice.Mna.compile net)
      (Repro_spice.Transient.default_options ~t_stop:1e-9 ~dt:1e-10)
  with
  | Ok _ -> ()
  | Error e -> failwith ("warm-up transient: " ^ Repro_spice.Solver_error.to_string e)

(* ---- set-up ----------------------------------------------------------- *)

type served = {
  server : server;
  client : Repro_serve.Client.t;
  table : H.Perf_table.t;  (** the fixture, loaded locally: bounds, fallback *)
}

type ctx = {
  w : workload;
  cfg : HH.config;
  model_dir : string option;  (** flow: fresh per run *)
  served : served option;
}

let setup w ~seed =
  E.Config.set_jobs (jobs_of w);
  force_lazy_handles ();
  match w with
  | Flow ->
    let dir =
      Filename.concat out_dir
        (Printf.sprintf "flow-model-%d-%d" seed (Unix.getpid ()))
    in
    rm_rf dir;
    mkdir_p dir;
    let cfg =
      HH.make_config ~seed:flow_seed ~scale:flow_scale ~spec:(spec_of w)
        ~model_dir:dir ()
    in
    { w; cfg; model_dir = Some dir; served = None }
  | Serve ->
    let table = H.Perf_table.load ~dir:fixture_dir in
    let cfg = HH.make_config ~seed ~scale:serve_scale ~spec:(spec_of w) () in
    let server = start_server () in
    let client = Repro_serve.Client.create ~port:server.port () in
    let fail msg =
      Repro_serve.Client.shutdown client;
      stop_server server;
      failwith msg
    in
    if not (Repro_serve.Client.wait_ready ~deadline:10. client) then
      fail "model server not ready";
    (* the first query loads the fixture into the server's registry *)
    let p = (H.Perf_table.entries table).(0).H.Variation_model.design.perf in
    (match
       Repro_serve.Client.query_points client ~model:"default"
         [| (p.V.kvco, p.V.ivco) |]
     with
    | Ok _ -> ()
    | Error e -> fail ("warm-up query: " ^ Repro_serve.Client.error_to_string e));
    { w; cfg; model_dir = None; served = Some { server; client; table } }

let teardown ctx =
  Option.iter
    (fun s ->
      Repro_serve.Client.shutdown s.client;
      stop_server s.server)
    ctx.served;
  Option.iter rm_rf ctx.model_dir

(* set-up time from process start: a child runs [setup] and reports the
   moment it finished *)
let time_setup w ~seed =
  let t0 = Unix.gettimeofday () in
  let pid, out =
    spawn Sys.executable_name
      [| "--setup-probe"; workload_name w; "--seed"; string_of_int seed |]
  in
  let lines = read_rest out in
  if reap pid <> Unix.WEXITED 0 then failwith "set-up probe failed";
  match List.find_map (fun l -> Scanf.sscanf_opt l "ready %f" Fun.id) lines with
  | Some t -> t -. t0
  | None -> failwith "set-up probe reported no ready time"

(* ---- the timed call -------------------------------------------------- *)

(* what the engine had counted when the circuit GA ended, before the
   system level's cheap PLL evaluations mix into the same counters *)
type boundary = {
  b_runs : int;
  b_hits : int;
  b_avoided : int;
  b_eval_wall : float;
  b_phase : float;
  b_busy : float;  (** seconds inside circuit evaluations *)
  b_eval : Hist.stats;
      (** eval.duration, quantiles only: it also holds the warm-up's one
          instant evaluation *)
}

let boundary () =
  {
    b_runs = counter "eval.runs";
    b_hits = counter "eval.cache_hits";
    b_avoided = counter "eval.avoided";
    b_eval_wall = timer "eval.wall";
    b_phase = timer "phase.circuit-ga";
    b_busy = hist_sum "eval.duration";
    b_eval = Hist.stats (Hist.get "eval.duration");
  }

type outcome = {
  result : HH.result;
  wall : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  circuit_end : boundary option;
  batches : ((float * float) array * H.Perf_table.point_eval array) list;
      (** serve: every served batch, in call order *)
}

(* Phase spans from the flow's progress lines: each line that starts a
   step closes the step before it. *)
let phase_step msg =
  let starts p = String.starts_with ~prefix:p msg in
  if starts "circuit level: " && contains msg " over " then `Open "circuit-ga"
  else if starts "circuit level: " && contains msg "Pareto designs" then
    `Circuit_end
  else if starts "variation model: " && contains msg "MC samples" then
    `Open "variation"
  else if starts "table model saved" then `Close
  else if starts "system level: " && contains msg " over " then `Open "system-ga"
  else if starts "system level: " && contains msg "Pareto solutions" then
    `Open "verify"
  else if starts "yield: " then `Open "yield"
  else if starts "engine: telemetry" then `Close
  else `Other

let run_call ctx spans =
  let circuit_end = ref None in
  let phase = ref (-1) in
  let close () =
    Spans.leave spans !phase;
    phase := -1
  in
  let progress msg =
    match phase_step msg with
    | `Open name ->
      close ();
      phase := Spans.enter spans name
    | `Close -> close ()
    | `Circuit_end ->
      close ();
      circuit_end := Some (boundary ())
    | `Other -> ()
  in
  let batches = ref [] and lock = Mutex.create () in
  let call () =
    match ctx.served with
    | None -> HH.run ~progress ctx.cfg
    | Some s ->
      let remote =
        Repro_serve.Remote.model_query ~fallback:s.table ~client:s.client
          ~model:"default" ()
      in
      let pll_query points =
        let answers = Spans.with_span spans "serve.query" (fun () -> remote points) in
        Mutex.protect lock (fun () -> batches := (points, answers) :: !batches);
        answers
      in
      HH.run_system_level ~progress ~pll_query ctx.cfg ~model:s.table
  in
  mark_baseline ();
  let gc0 = Gc.quick_stat () in
  let root = Spans.enter spans "workload" in
  let t0 = Unix.gettimeofday () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        close ();
        Spans.leave spans root)
      call
  in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  { result; wall; gc0; gc1; circuit_end = !circuit_end; batches = List.rev !batches }

(* ---- output checks ---------------------------------------------------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same3 (a1, a2, a3) (b1, b2, b3) =
  same_bits a1 b1 && same_bits a2 b2 && same_bits a3 b3

let same_eval (a : H.Perf_table.point_eval) (b : H.Perf_table.point_eval) =
  same3 a.q_kvco b.q_kvco && same3 a.q_ivco b.q_ivco && same3 a.q_jvco b.q_jvco
  && same_bits a.q_fmin b.q_fmin && same_bits a.q_fmax b.q_fmax

let replay table batches =
  List.map (fun (points, _) -> H.Perf_table.eval_points table points) batches

let bit_identical batches replayed =
  List.for_all2
    (fun (_, served) local ->
      Array.length served = Array.length local
      && Array.for_all2 same_eval served local)
    batches replayed

let selection_checks (spec : H.Spec.t) (r : HH.result) =
  [
    ("a design is selected", r.selected <> None);
    ( "worst-case lock time and current meet the spec",
      match r.selected with
      | Some row ->
        row.H.Pll_problem.lock_max <= spec.lock_time_max
        && row.H.Pll_problem.curr_max <= spec.current_max
      | None -> false );
    ( "the selected design was re-simulated",
      match r.verification with
      | Some { HH.measured = Ok _; _ } -> true
      | _ -> false );
    ("a yield was estimated", r.yield <> None);
  ]

let flow_checks (spec : H.Spec.t) (r : HH.result) =
  let covers (d : H.Vco_problem.sized_design) =
    d.perf.V.fmin <= spec.f_out_low && d.perf.V.fmax >= spec.f_out_high
  in
  [
    ("the front has at least 2 designs", Array.length r.front >= 2);
    ("every front design covers the spec band", Array.for_all covers r.front);
    ( "dJvco > dIvco on every Table 1 row",
      Array.length r.entries > 0
      && Array.for_all
           (fun (e : H.Variation_model.entry) -> e.d_jvco > e.d_ivco)
           r.entries );
  ]
  @ selection_checks spec r

(* ---- metrics ---------------------------------------------------------- *)

let metric name unit_ value = { Report.name; value; unit_ }
let ratio a b = if b > 0.0 then a /. b else 0.0

let hv w (r : HH.result) =
  match w with
  | Flow ->
    Perfbench.Hv.fraction ~ideal:circuit_ideal ~reference:HH.circuit_hv_reference
      (Array.map
         (fun (d : H.Vco_problem.sized_design) ->
           let o = H.Vco_problem.objectives_of_perf d.perf in
           Array.map (fun i -> o.(i)) HH.circuit_hv_dims)
         r.front)
  | Serve ->
    Perfbench.Hv.fraction ~ideal:system_ideal ~reference:HH.system_hv_reference
      (Array.map
         (fun (row : H.Pll_problem.table2_row) -> [| row.lock; row.jit; row.curr |])
         r.rows)

(* evaluations the hv level simulated (cache hits excluded): the circuit
   GA for flow, the system GA for serve *)
let level_evals ctx o =
  match (ctx.w, o.circuit_end) with
  | Flow, Some b -> b.b_runs
  | Flow, None -> failwith "the circuit GA's end was not seen in the progress lines"
  | Serve, _ -> counter "eval.runs"

let end_to_end ctx o ~setup_s =
  let hv = hv ctx.w o.result in
  let yield_ =
    match o.result.yield with
    | Some y -> y.Repro_util.Stats.fraction
    | None -> 0.0
  in
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" o.wall;
    metric "hv" "fraction" hv;
    metric "hv_per_eval" "1/eval" (ratio hv (float_of_int (level_evals ctx o)));
    metric "hv_per_s" "1/s" (ratio hv o.wall);
    metric "yield" "fraction" yield_;
    metric "peak_rss_mb" "MB" (peak_rss_mb None);
  ]

let ms x = x *. 1e3

(* the bench's own probes of single layers, each a timed call into a
   public function on this run's data *)
let repeat spans name n f =
  for _ = 1 to n do
    Spans.with_span spans name (fun () -> ignore (Sys.opaque_identity (f ())))
  done;
  Sample.median (Spans.durations spans name)

(* one transient of the median front design over Vco_measure's default
   window and start-up kick *)
let kernel_probe spans ctx (r : HH.result) =
  let front = Array.copy r.front in
  Array.sort
    (fun (a : H.Vco_problem.sized_design) b -> compare a.perf.V.kvco b.perf.V.kvco)
    front;
  let design = front.(Array.length front / 2) in
  let o = ctx.cfg.measure in
  let ic =
    List.init o.V.stages (fun i ->
        ( Printf.sprintf "s%d" (i + 1),
          if i = o.V.stages - 1 then o.V.vdd /. 2.0
          else if i mod 2 = 0 then o.V.vdd
          else 0.0 ))
  in
  let opts =
    { (Repro_spice.Transient.default_options ~t_stop:o.V.t_stop ~dt:o.V.dt) with ic }
  in
  let compiled = Repro_spice.Mna.compile (HH.circuit_netlist ctx.cfg design.params) in
  let run () =
    match Repro_spice.Transient.run_result compiled opts with
    | Ok res -> res
    | Error e -> failwith ("kernel probe: " ^ Repro_spice.Solver_error.to_string e)
  in
  let res = run () in
  let steps = Array.length (Repro_spice.Transient.times res) - 1 in
  let newton = Repro_spice.Transient.total_newton_iterations res in
  let wall = repeat spans "probe.transient" 5 run in
  (steps, newton, wall)

(* what only the served workload measures: its query stream and the
   server, read before the server stops *)
type served_layer = {
  us_per_point : float;
  rtt : float array;  (** seconds per [model_query] call *)
  points : int;
  handler_p50 : float;  (** seconds, the server's [serve.latency.query] *)
  server_rss : float;
}

let served_layer spans s batches =
  let points = List.fold_left (fun n (p, _) -> n + Array.length p) 0 batches in
  let replay_s = repeat spans "probe.replay" 5 (fun () -> replay s.table batches) in
  let handler_p50 =
    match Repro_serve.Client.get_json s.client "/v1/metrics" with
    | Error e ->
      failwith ("GET /v1/metrics: " ^ Repro_serve.Client.error_to_string e)
    | Ok doc -> (
      match
        Option.bind (J.member "histograms" doc) (fun h ->
            Option.bind (J.member "serve.latency.query" h) (J.member "p50"))
      with
      | Some (J.Num v) -> v
      | _ -> failwith "GET /v1/metrics: no serve.latency.query histogram")
  in
  {
    us_per_point = ratio (replay_s *. 1e6) (float_of_int points);
    rtt = Spans.durations spans "serve.query";
    points;
    handler_p50;
    server_rss = peak_rss_mb (Some s.server.pid);
  }

let layer_metrics ctx o spans ~untraced_wall =
  let r = o.result in
  let jobs = float_of_int (E.Config.jobs ()) in
  let hist name = Hist.stats (Hist.get name) in
  let count name = float_of_int (counter name) in
  let mc_h = hist "mc.sample.duration" and queue_h = hist "pool.queue_wait" in
  (* the hv level: circuit GA for flow, system GA for serve *)
  let runs, hits, avoided, eval_wall, phase_s, busy =
    match o.circuit_end with
    | Some b ->
      (b.b_runs, b.b_hits, b.b_avoided, b.b_eval_wall, b.b_phase, b.b_busy)
    | None ->
      ( counter "eval.runs",
        counter "eval.cache_hits",
        counter "eval.avoided",
        timer "eval.wall",
        timer "phase.system-ga",
        hist_sum "eval.duration" )
  in
  let circuit f = match o.circuit_end with Some b -> f b | None -> 0.0 in
  let phase p = timer ("phase." ^ p) in
  let phases_s =
    List.fold_left (fun acc p -> acc +. phase p) 0.0
      [ "circuit-ga"; "variation-mc"; "model"; "system-ga"; "yield" ]
  in
  let steps, newton, tran_wall = kernel_probe spans ctx r in
  let pll = { r.pll_config with H.Pll_problem.query = None } in
  let row = match r.selected with Some row -> row | None -> r.rows.(0) in
  let eval_s =
    repeat spans "probe.pll_eval" 21 (fun () ->
        H.Pll_problem.evaluate_point pll ~kvco:row.kv ~ivco:row.iv ~c1:row.c1
          ~c2:row.c2 ~r1:row.r1)
  in
  let sample_s =
    repeat spans "probe.yield_sample" 21 (fun () ->
        H.Yield.check_sample pll ~kvco:row.kv ~ivco:row.iv ~c1:row.c1 ~c2:row.c2
          ~r1:row.r1)
  in
  let load_s =
    let dir = Option.value ctx.model_dir ~default:fixture_dir in
    repeat spans "probe.interp_load" 5 (fun () -> H.Perf_table.load ~dir)
  in
  let served = Option.map (fun s -> served_layer spans s o.batches) ctx.served in
  let sv f = match served with Some v -> f v | None -> 0.0 in
  let rtt_ms p =
    sv (fun v ->
        match Sample.percentile p v.rtt with
        | Ok x -> ms x
        | Error msg -> failwith ("serve.rtt: " ^ msg))
  in
  let gc f = f o.gc1 -. f o.gc0 in
  let gcn f = float_of_int (f o.gc1 - f o.gc0) in
  [
    ("core.circuit_ga_s", "s", phase "circuit-ga");
    ("core.variation_s", "s", phase "variation-mc");
    ("core.model_s", "s", phase "model");
    ("core.system_ga_s", "s", phase "system-ga");
    ("core.yield_s", "s", phase "yield");
    ("core.unattributed_s", "s", o.wall -. phases_s);
    ("spice.evals", "count", circuit (fun b -> float_of_int b.b_runs));
    ("spice.eval_ms_p50", "ms", circuit (fun b -> ms b.b_eval.p50));
    ("spice.eval_ms_p90", "ms", circuit (fun b -> ms b.b_eval.p90));
    ("spice.eval_busy_s", "s", circuit (fun b -> b.b_busy));
    ("spice.mc_trials", "count", count "mc.trials");
    ("spice.mc_failures", "count", count "mc.failures");
    ("spice.mc_ms_p50", "ms", ms mc_h.p50);
    ("spice.mc_ms_p90", "ms", ms mc_h.p90);
    ("spice.mc_busy_s", "s", hist_sum "mc.sample.duration");
    ("spice.tran_steps", "count", float_of_int steps);
    ("spice.newton_per_step", "1/step", ratio (float_of_int newton) (float_of_int steps));
    ("spice.us_per_newton", "us", ratio (tran_wall *. 1e6) (float_of_int newton));
    ("spice.verify_s", "s", Array.fold_left ( +. ) 0.0 (Spans.durations spans "verify"));
    ("linalg.symbolic", "count", count "solver.symbolic");
    ("linalg.refactorise", "count", count "solver.refactorise");
    ("linalg.refactorise_fallback", "count", count "solver.refactorise_fallback");
    ("linalg.factorise_s", "s", hist_sum "solver.factorise");
    ("linalg.refactorise_s", "s", hist_sum "solver.refactorise");
    ("engine.jobs", "count", jobs);
    ("engine.cache_hits", "count", count "eval.cache_hits");
    ( "engine.cache_hit_ratio", "fraction",
      ratio (count "eval.cache_hits") (count "eval.cache_hits" +. count "eval.runs") );
    ("engine.ga_efficiency", "fraction", ratio busy (eval_wall *. jobs));
    ( "engine.mc_efficiency", "fraction",
      ratio (hist_sum "mc.sample.duration") (timer "mc.wall" *. jobs) );
    ("engine.queue_wait_s", "s", hist_sum "pool.queue_wait");
    ("engine.queue_wait_ms_p50", "ms", ms queue_h.p50);
    ("moo.evals_requested", "count", float_of_int (runs + hits + avoided));
    ("moo.evals_simulated", "count", float_of_int runs);
    ("moo.overhead_s", "s", phase_s -. eval_wall);
    ("behave.eval_ms", "ms", ms eval_s);
    ("behave.yield_sample_ms", "ms", ms sample_s);
    ("interp.us_per_point", "us", sv (fun v -> v.us_per_point));
    ("interp.load_ms", "ms", ms load_s);
    ("serve.queries", "count", sv (fun v -> float_of_int (Array.length v.rtt)));
    ("serve.points", "count", sv (fun v -> float_of_int v.points));
    ("serve.rtt_ms_p50", "ms", rtt_ms 50.);
    ("serve.rtt_ms_p90", "ms", rtt_ms 90.);
    ("serve.rtt_ms_p99", "ms", rtt_ms 99.);
    ("serve.rtt_s", "s", sv (fun v -> Array.fold_left ( +. ) 0.0 v.rtt));
    ("serve.handler_ms_p50", "ms", sv (fun v -> ms v.handler_p50));
    ("serve.fallbacks", "count", count "serve.remote_fallbacks");
    ("serve.server_rss_mb", "MB", sv (fun v -> v.server_rss));
    ("gc.minor_collections", "count", gcn (fun s -> s.Gc.minor_collections));
    ("gc.major_collections", "count", gcn (fun s -> s.Gc.major_collections));
    ("gc.minor_mwords", "Mwords", gc (fun s -> s.Gc.minor_words) /. 1e6);
    ("gc.promoted_mwords", "Mwords", gc (fun s -> s.Gc.promoted_words) /. 1e6);
    ("trace.overhead", "fraction", (o.wall /. untraced_wall) -. 1.0);
  ]
  |> List.map (fun (name, unit_, value) -> metric name unit_ value)

(* ---- one run ----------------------------------------------------------- *)

type args = {
  workload : workload;
  seed : int;
  seconds : int;
  trace : bool;
}

(* wall time of the same workload and seed, untraced, in its own
   process *)
let untraced_wall a =
  let pid, out =
    spawn Sys.executable_name
      [|
        "--workload"; workload_name a.workload; "--seed"; string_of_int a.seed;
        "--seconds"; string_of_int a.seconds; "--trace"; "0";
      |]
  in
  let lines = read_rest out in
  ignore (reap pid);
  let wall =
    match List.rev lines with
    | last :: _ -> (
      match J.of_string last with
      | Ok doc ->
        Option.bind (J.member "metrics" doc) (fun m ->
            Option.bind (J.member "wall_s" m) (J.member "value"))
      | Error _ -> None)
    | [] -> None
  in
  match wall with
  | Some (J.Num w) -> w
  | _ -> failwith "the untraced reference run printed no wall_s"

let meta a ~probe_before ~probe_after ~setup_samples ~failed_checks =
  let s = scale_of a.workload in
  let jobs = jobs_of a.workload in
  let num n = J.Num (float_of_int n) in
  J.Obj
    [
      ("workload", J.Str (workload_name a.workload));
      ("seed", num a.seed);
      ("workload_seed", num (workload_seed a.workload a.seed));
      ("seconds", num a.seconds);
      ("trace", J.Bool a.trace);
      ("jobs", num jobs);
      ("nproc", num (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ( "scale",
        J.Obj
          [
            ("vco_population", num s.vco_population);
            ("vco_generations", num s.vco_generations);
            ("mc_samples", num s.mc_samples);
            ("front_max", num s.front_max);
            ("pll_population", num s.pll_population);
            ("pll_generations", num s.pll_generations);
            ("yield_samples", num s.yield_samples);
          ] );
      ("spec", J.Str (spec_label a.workload));
      ("host_probe_ms", J.Arr [ J.Num probe_before; J.Num probe_after ]);
      ("setup_samples_s", J.Arr (List.map (fun x -> J.Num x) setup_samples));
      ("failed_checks", J.Arr (List.map (fun c -> J.Str c) failed_checks));
      ( "count_exact",
        J.Obj
          (List.map
             (fun c -> (c, J.Bool (count_exact ~jobs c)))
             (steady_counts @ solver_counts @ gc_counts)) );
    ]

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let checks ctx o =
  let spec = spec_of ctx.w in
  match ctx.served with
  | None -> flow_checks spec o.result
  | Some s ->
    selection_checks spec o.result
    @ [
        ( "no query fell back to the local table",
          counter "serve.remote_fallbacks" = 0 );
        ( "served batches are bit-identical to the fixture",
          o.batches <> [] && bit_identical o.batches (replay s.table o.batches) );
      ]

let write_trace tag spans =
  write_file
    (Filename.concat out_dir (tag ^ ".trace.json"))
    (J.to_string (Spans.chrome_json spans));
  write_file
    (Filename.concat out_dir (tag ^ ".self_time.tsv"))
    (String.concat ""
       (List.map
          (fun (row : Repro_prof.Analysis.row) ->
            Printf.sprintf "%s\t%d\t%.6f\t%.6f\n" row.name row.count
              (row.total_us /. 1e6) (row.self_us /. 1e6))
          (Spans.self_time spans)))

let run a =
  mkdir_p out_dir;
  let tag =
    Printf.sprintf "%s-seed%d-trace%d" (workload_name a.workload) a.seed
      (if a.trace then 1 else 0)
  in
  let probe_before = Perfbench_probe.Host_probe.ms () in
  let untraced = if a.trace then Some (untraced_wall a) else None in
  let setup_samples =
    if a.trace then []
    else List.init setup_repeats (fun _ -> time_setup a.workload ~seed:a.seed)
  in
  let spans = Spans.create ~enabled:a.trace () in
  let ctx = setup a.workload ~seed:a.seed in
  let o, checks, layer =
    Fun.protect
      ~finally:(fun () -> teardown ctx)
      (fun () ->
        let o = run_call ctx spans in
        let layer =
          match untraced with
          | None -> []
          | Some untraced_wall -> layer_metrics ctx o spans ~untraced_wall
        in
        (o, checks ctx o, layer))
  in
  let probe_after = Perfbench_probe.Host_probe.ms () in
  let failed_checks =
    List.filter_map (fun (name, ok) -> if ok then None else Some name) checks
  in
  List.iter (Printf.eprintf "perfbench: check failed: %s\n%!") failed_checks;
  (* operations: the run itself, plus each model query for serve *)
  let attempted = 1 + List.length o.batches in
  let failed =
    counter "serve.remote_fallbacks" + if failed_checks = [] then 0 else 1
  in
  let metrics =
    if a.trace then
      layer
      @ [ metric "host.probe_ms" "ms" (Sample.median [| probe_before; probe_after |]) ]
    else
      end_to_end ctx o ~setup_s:(Sample.median (Array.of_list setup_samples))
      @ [
          metric "success_ratio" "fraction"
            (float_of_int (attempted - failed) /. float_of_int attempted);
        ]
  in
  let meta =
    J.to_string (meta a ~probe_before ~probe_after ~setup_samples ~failed_checks)
  in
  match Report.result_json ~correct:(failed = 0) ~attempted ~failed metrics with
  | Error msg ->
    Printf.eprintf "perfbench: %s\n%!" msg;
    exit 2
  | Ok line ->
    if a.trace then write_trace tag spans;
    write_file (Filename.concat out_dir (tag ^ ".json")) (meta ^ "\n" ^ line ^ "\n");
    print_endline ("perfbench-meta " ^ meta);
    print_endline line;
    if failed > 0 then exit 1

(* ---- command line ------------------------------------------------------ *)

let usage =
  "usage: main.exe --workload flow|serve --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec pairs acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      pairs ((k, v) :: acc) rest
    | [] -> List.rev acc
    | k :: _ -> die ("unexpected argument " ^ k)
  in
  let kv = pairs [] args in
  let get k = List.assoc_opt k kv in
  let int k =
    match get k with
    | None -> die ("missing " ^ k)
    | Some v -> (
      match int_of_string_opt v with Some n -> n | None -> die (k ^ ": not an integer"))
  in
  let workload_of = function
    | "flow" -> Flow
    | "serve" -> Serve
    | w -> die ("unknown workload " ^ w)
  in
  match get "--setup-probe" with
  | Some w ->
    let w = workload_of w in
    let ctx = setup w ~seed:(int "--seed") in
    Printf.printf "ready %.17g\n%!" (Unix.gettimeofday ());
    teardown ctx
  | None ->
    let workload =
      match get "--workload" with Some w -> workload_of w | None -> die "missing --workload"
    in
    let seconds = int "--seconds" in
    if seconds < 1 then die "--seconds must be positive";
    let trace =
      match int "--trace" with 0 -> false | 1 -> true | _ -> die "--trace is 0 or 1"
    in
    run { workload; seed = int "--seed"; seconds; trace }
