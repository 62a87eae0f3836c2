(* hieropt — command-line driver for the hierarchical performance and
   variation flow.

   Sub-commands:
     simulate      parse a SPICE-like deck, run DC + transient, report
     characterise  measure a ring-VCO sizing (the paper's testbench)
     flow          run the full hierarchical flow (Figure 4)
     system        re-run the system level over a saved table model
     yield         Monte-Carlo a design point from a saved table model
     export        render a saved table model as Verilog-A or SPICE
     serve         serve a saved table model over HTTP
     query         query a table model (local dir or running server)
     report        summarise a run journal (and optionally a trace)

   Exit codes: 0 success; 1 generic failure; 3 circuit solver error;
   4 invalid/unloadable table model; 5 model-server error (bind,
   unreachable, bad response); 6 netlist parse/elaboration error;
   124 usage error (cmdliner's, bad numeric flags included);
   130 interrupted. *)

open Cmdliner
module Json = Repro_util.Json

let version = "1.0.0"

let exit_solver = 3
let exit_model = 4
let exit_serve = 5
let exit_netlist = 6

let die code fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@." msg;
      exit code)
    fmt

(* Every SI-valued flag parses through [si], so a malformed or
   non-finite value is a usage error naming the flag (exit 124) before
   any work starts; [positive] adds the range the callee needs. *)
let si =
  let parse s =
    match Repro_util.Si.parse_opt s with
    | Some v when Float.is_finite v -> Ok v
    | _ ->
      Error
        (`Msg (Printf.sprintf "%S is not a finite number in SPICE notation" s))
  in
  Arg.conv ~docv:"VAL"
    (parse, fun ppf v -> Fmt.string ppf (Repro_util.Si.format v))

let positive conv ~zero =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v > zero -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not positive" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

(* every netlist front-end entry point funnels through here so a bad
   deck always exits 6 with a file:line:col diagnostic *)
let with_netlist_errors f =
  try f ()
  with
  | Repro_netlist.Loc.Netlist_error _ as e ->
    die exit_netlist "%s" (Repro_netlist.Loc.error_to_string e)
  | Sys_error msg -> die exit_netlist "%s" msg

let load_model dir =
  match Hieropt.Perf_table.load ~dir with
  | model -> model
  | exception Hieropt.Perf_table.Invalid_table_file
      { path; expected_columns; found_columns } ->
    die exit_model "invalid table model: %s has %d columns, expected %d" path
      found_columns expected_columns
  | exception Sys_error msg -> die exit_model "cannot load table model: %s" msg
  | exception Failure msg -> die exit_model "cannot load table model: %s" msg

let setup_logging verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chattier progress output.")

let seed_t =
  Arg.(
    value
    & opt int 2009
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (flows are deterministic).")

let scale_t =
  Arg.(
    value
    & opt (some (enum [ ("tiny", `Tiny); ("bench", `Bench); ("paper", `Paper) ]))
        None
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Workload scale: $(b,tiny) (seconds; also narrows the spec to \
           the smoke-test band), $(b,bench) (minutes) or $(b,paper) (the \
           paper's settings).  Defaults to $(b,paper) when HIEROPT_FULL \
           is set, else $(b,bench).")

(* tiny swaps in the smoke-test spec too *)
let resolve_scale scale =
  match scale with
  | Some `Tiny -> (Hieropt.Hierarchy.tiny_scale, Some Hieropt.Hierarchy.tiny_spec)
  | Some `Bench -> (Hieropt.Hierarchy.bench_scale, None)
  | Some `Paper -> (Hieropt.Hierarchy.paper_scale, None)
  | None -> (Hieropt.Hierarchy.scale_of_env (), None)

(* The OCaml runtime runs at most 128 domains, and a pool of N workers
   is the calling domain plus N - 1 spawned ones, so a larger count
   would fail at the first parallel region. *)
let max_jobs = 128

let jobs_conv =
  let parse s =
    match Arg.conv_parser (positive Arg.int ~zero:0) s with
    | Ok n when n > max_jobs ->
      Error
        (`Msg
          (Printf.sprintf "%S exceeds the runtime's %d-domain limit" s
             max_jobs))
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let jobs_t =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel evaluation engine, 1 to 128 \
           (the OCaml runtime's domain limit).  Defaults to HIEROPT_JOBS, \
           or the machine's recommended domain count.  Results are \
           bit-identical for any worker count; -j 1 forces fully serial \
           evaluation.")

let setup_jobs jobs = Option.iter Repro_engine.Config.set_jobs jobs

(* ---- optimiser choice ---- *)

let optimiser_t =
  let module H = Hieropt.Hierarchy in
  let choices = List.map (fun o -> (H.optimiser_name o, o)) H.optimisers in
  Arg.(
    value
    & opt (enum choices) H.Nsga2
    & info [ "optimiser" ] ~docv:"ALGO"
        ~doc:
          "Optimiser running both GA levels: $(b,nsga2) (the paper's, \
           unscreened) or $(b,de) (differential evolution with \
           Pareto-domination selection, always behind the surrogate \
           pre-screen, which skips exact evaluation of candidates \
           predicted to be dominated by the current front; avoided/paid \
           counts land in telemetry, the run journal and $(b,hieropt \
           report)).  The choice is salted into eval cache keys, so \
           switching never aliases a previous run's evaluations.")

(* ---- run lifecycle ---- *)

let interrupt_after_t =
  let phases =
    List.map
      (fun p -> (Hieropt.Hierarchy.phase_name p, p))
      Hieropt.Hierarchy.[ Circuit_ga; Variation; Model; System_ga ]
  in
  Arg.(
    value
    & opt (some (enum phases)) None
    & info [ "interrupt-after" ] ~docv:"PHASE"
        ~doc:
          "Testing hook: save the eval cache and stop (exit 130) once \
           $(docv) completes, as an external interrupt at that boundary \
           would.")

(* Ctrl-C stops a run at the next GA generation or Monte-Carlo design,
   with everything finished so far in the model dir's eval.cache, which
   is all a resume needs: the same command, run again, replays it.  A
   second Ctrl-C kills the process. *)
let with_lifecycle f =
  Repro_engine.Checkpoint.install_signal_handler ();
  try f ()
  with Repro_engine.Checkpoint.Interrupted ->
    Fmt.epr "interrupted — eval cache saved; run the same command again to \
             resume@.";
    exit 130

(* ---- tracing ---- *)

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span timeline of the run and write it to $(docv) as \
           Chrome trace_event JSON on exit (load in chrome://tracing or \
           Perfetto).  Tracing is zero-perturbation: results and \
           artefacts are byte-identical with or without it.")

(* sits INSIDE with_lifecycle so the trace is exported (by
   Trace.record's finaliser) even when Checkpoint.Interrupted unwinds
   the run before with_lifecycle turns it into exit 130 *)
let with_trace ?label trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Repro_obs.Trace.record ?label path f ~on_export:(function
      | Ok n -> Fmt.epr "trace: %d events written to %s@." n path
      | Error msg -> Fmt.epr "trace: cannot write %s: %s@." path msg)

(* ---- simulate ---- *)

let simulate_cmd =
  let deck_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DECK" ~doc:"SPICE-like netlist file.")
  in
  let tstop_t =
    Arg.(
      value
      & opt (positive si ~zero:0.0) (Repro_util.Si.parse "10n")
      & info [ "t-stop" ] ~absent:"10n" ~docv:"TIME"
          ~doc:"Transient length (SPICE units).")
  in
  let dt_t =
    Arg.(
      value
      & opt (positive si ~zero:0.0) (Repro_util.Si.parse "10p")
      & info [ "dt" ] ~absent:"10p" ~docv:"TIME"
          ~doc:"Transient step (SPICE units).")
  in
  let node_t =
    Arg.(
      value
      & opt_all string []
      & info [ "probe" ] ~docv:"NODE"
          ~doc:
            "Node(s) to report (repeatable); a name the deck does not \
             define is a usage error.")
  in
  let run deck t_stop dt probes verbose =
    setup_logging verbose;
    let net =
      with_netlist_errors (fun () -> Repro_netlist.Elab.netlist_of_file deck)
    in
    let probes =
      if probes <> [] then probes
      else
        (* default: every named non-ground node *)
        List.init (Repro_circuit.Netlist.node_count net - 1) (fun i ->
            Repro_circuit.Netlist.node_name net (i + 1))
    in
    (* a probe the deck does not name is a usage error, found before
       anything is simulated *)
    List.iter
      (fun node ->
        if Repro_circuit.Netlist.find_node net node = None then
          die 124 "hieropt: --probe %s: %s has no node of that name" node deck)
      probes;
    let cm = Repro_spice.Mna.compile net in
    let dc =
      match Repro_spice.Dcop.solve_result cm with
      | Ok dc -> dc
      | Error e ->
        Fmt.epr "DC operating point failed: %s@."
          (Repro_spice.Solver_error.to_string e);
        exit exit_solver
    in
    Fmt.pr "DC operating point (%s, %d iterations)@."
      dc.Repro_spice.Dcop.strategy dc.Repro_spice.Dcop.iterations;
    let res =
      match
        Repro_spice.Transient.run_result cm
          (Repro_spice.Transient.default_options ~t_stop ~dt)
      with
      | Ok res -> res
      | Error e ->
        Fmt.epr "transient failed: %s@." (Repro_spice.Solver_error.to_string e);
        exit exit_solver
    in
    List.iter
      (fun node ->
        let w = Repro_spice.Transient.node_wave res node in
        Fmt.pr "v(%s): dc=%.4f V, mean=%.4f V, ptp=%.4f V%a@." node
          (Repro_spice.Dcop.node_voltage cm dc node)
          (Repro_spice.Waveform.mean w)
          (Repro_spice.Waveform.peak_to_peak w)
          (fun ppf w ->
            match Repro_spice.Waveform.frequency w ~level:(Repro_spice.Waveform.mean w) with
            | Some f -> Fmt.pf ppf ", f=%s" (Repro_util.Si.format_unit f "Hz")
            | None -> ())
          w)
      probes
  in
  let info =
    Cmd.info "simulate" ~doc:"Simulate a SPICE-like deck (DC + transient)."
  in
  Cmd.v info
    Term.(const run $ deck_t $ tstop_t $ dt_t $ node_t $ verbose_t)

(* ---- characterise ---- *)

let characterise_cmd =
  let params_t =
    let doc =
      "The 7 designable parameters wn,ln,wp,lp,wcn,wcp,lc with SPICE \
       suffixes, e.g. '20u,0.2u,40u,0.2u,30u,60u,0.24u'."
    in
    let seven =
      let sizes = Arg.(array (positive si ~zero:0.0)) in
      let parse s =
        match Arg.conv_parser sizes s with
        | Ok v when Array.length v = 7 -> Ok v
        | Ok _ -> Error (`Msg "need exactly 7 comma-separated values")
        | Error _ as e -> e
      in
      Arg.conv ~docv:"VAL,..." (parse, Arg.conv_printer sizes)
    in
    Arg.(
      value
      & opt (some seven) None
      & info [ "sizing" ] ~docv:"W/L LIST" ~doc)
  in
  let run sizing verbose =
    setup_logging verbose;
    let params =
      match sizing with
      | None -> Repro_circuit.Topologies.vco_default
      | Some v -> Repro_circuit.Topologies.vco_params_of_vector v
    in
    match Repro_spice.Vco_measure.characterise params with
    | Ok perf -> Fmt.pr "%a@." Repro_spice.Vco_measure.pp_performance perf
    | Error f ->
      Fmt.epr "characterisation failed: %s@."
        (Repro_spice.Vco_measure.failure_to_string f);
      exit exit_solver
  in
  let info =
    Cmd.info "characterise"
      ~doc:"Measure a ring-VCO sizing at transistor level (kvco, ivco, jvco, fmin, fmax)."
  in
  Cmd.v info Term.(const run $ params_t $ verbose_t)

(* ---- flow ---- *)

let model_dir_t =
  Arg.(
    value
    & opt string "hieropt_model"
    & info [ "model-dir" ] ~docv:"DIR" ~doc:"Where the .tbl table model lives.")

let netlist_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "netlist" ] ~docv:"DECK"
        ~doc:
          "Optimise the circuit described by $(docv) — a SPICE-like deck \
           whose designable parameters carry $(b,.param name = {range lo \
           hi}) templates — instead of the built-in ring-VCO builder.  A \
           deck that elaborates to exactly the built-in topology and \
           bounds is canonicalised onto the builder, so its artefacts \
           and cache keys are byte-identical to a run without this \
           flag.")

(* A --netlist deck replaces the built-in circuit builder.  When the
   deck is provably the built-in ring VCO (same parameter vector, same
   bounds, and structurally identical netlists at the midpoint and both
   design-space corners) we canonicalise to [circuit = None]: the run is
   then indistinguishable — salt, fingerprint, cache keys, artefacts —
   from one that never passed --netlist.  Anything else becomes a
   [Hierarchy.circuit] tagged with the template fingerprint, which
   perturbs the salt exactly when the circuit actually differs. *)
let circuit_of_netlist ~measure path =
  with_netlist_errors @@ fun () ->
  let module T = Repro_circuit.Topologies in
  let module V = Repro_spice.Vco_measure in
  let t = Repro_netlist.Elab.template_of_file path in
  let builtin_equivalent =
    t.Repro_netlist.Elab.param_names = T.vco_param_names
    && t.Repro_netlist.Elab.bounds = T.vco_bounds
    &&
    let same x =
      Repro_netlist.Elab.same_netlist
        (t.Repro_netlist.Elab.instantiate x)
        (T.ring_vco ~stages:measure.V.stages ~vdd:measure.V.vdd
           ~vctl:measure.V.vctl_lo
           (T.vco_params_of_vector x))
    in
    List.for_all same
      [
        t.Repro_netlist.Elab.default;
        Array.map fst t.Repro_netlist.Elab.bounds;
        Array.map snd t.Repro_netlist.Elab.bounds;
      ]
  in
  if builtin_equivalent then None
  else begin
    let n = Array.length t.Repro_netlist.Elab.param_names in
    if n <> Array.length T.vco_param_names then
      die exit_netlist
        "%s: the flow sizes %d designable parameters, but the deck \
         declares %d {range} template(s)"
        path
        (Array.length T.vco_param_names)
        n;
    Some
      {
        Hieropt.Hierarchy.tag = t.Repro_netlist.Elab.fingerprint;
        bounds = t.Repro_netlist.Elab.bounds;
        build =
          (fun p ->
            t.Repro_netlist.Elab.instantiate (T.vco_vector_of_params p));
      }
  end

let flow_cmd =
  let ablation_t =
    Arg.(
      value & flag
      & info [ "nominal-only" ]
          ~doc:
            "Ignore the variation model during system-level optimisation \
             (the method of the paper's reference [10]); for the ablation \
             comparison.")
  in
  let run seed scale jobs nominal_only optimiser netlist model_dir
      interrupt_after trace verbose =
    setup_logging verbose;
    setup_jobs jobs;
    let scale, spec = resolve_scale scale in
    let make ?circuit () =
      Hieropt.Hierarchy.make_config ~seed ~scale ?spec
        ~use_variation:(not nominal_only) ~optimiser ~model_dir ?circuit ()
    in
    let cfg = make () in
    let cfg =
      match netlist with
      | None -> cfg
      | Some path -> (
        match
          circuit_of_netlist ~measure:cfg.Hieropt.Hierarchy.measure path
        with
        | None -> cfg
        | Some _ as circuit -> make ?circuit ())
    in
    with_lifecycle @@ fun () ->
    with_trace ~label:"coordinator" trace @@ fun () ->
    let result =
      Hieropt.Hierarchy.run
        ~progress:(fun s -> Fmt.pr "[flow] %s@." s)
        ?interrupt_after cfg
    in
    Fmt.pr "@.%s@." (Hieropt.Experiments.fig7_front result.Hieropt.Hierarchy.front);
    Fmt.pr "%s@." (Hieropt.Experiments.table1 result.Hieropt.Hierarchy.entries);
    Fmt.pr "%s@."
      (Hieropt.Experiments.table2 ?selected:result.Hieropt.Hierarchy.selected
         result.Hieropt.Hierarchy.rows);
    (match result.Hieropt.Hierarchy.selected with
    | Some row ->
      Fmt.pr "%s@."
        (Hieropt.Experiments.fig8_locking result.Hieropt.Hierarchy.pll_config row)
    | None -> Fmt.pr "no design met the specification@.");
    (match result.Hieropt.Hierarchy.yield with
    | Some y ->
      Fmt.pr "%s@."
        (Hieropt.Experiments.yield_report y
           ~verification:result.Hieropt.Hierarchy.verification)
    | None -> ());
    Fmt.pr "%s@." (Repro_engine.Telemetry.line ())
  in
  let info =
    Cmd.info "flow"
      ~doc:"Run the complete hierarchical flow (Figure 4 of the paper)."
  in
  Cmd.v info
    Term.(
      const run $ seed_t $ scale_t $ jobs_t $ ablation_t
      $ optimiser_t $ netlist_t $ model_dir_t $ interrupt_after_t $ trace_t
      $ verbose_t)

(* ---- system ---- *)

let remote_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"HOST:PORT"
        ~doc:
          "Evaluate candidates against a running $(b,hieropt serve) \
           instance instead of the in-process table.  The server runs \
           the same interpolation code and floats cross the wire \
           losslessly, so results are bit-identical to a local run; if \
           the server becomes unreachable the run falls back to the \
           local model.")

let pll_query_of_remote ~fallback remote =
  match remote with
  | None -> None
  | Some spec -> (
    match Repro_serve.Remote.parse_endpoint spec with
    | Error msg -> die exit_serve "--remote %s: %s" spec msg
    | Ok (host, port) ->
      let client = Repro_serve.Client.create ~host ~port () in
      if not (Repro_serve.Client.wait_ready ~deadline:5. client) then
        die exit_serve "--remote %s: server not reachable" spec;
      Some
        (Repro_serve.Remote.model_query ~fallback ~client
           ~model:Repro_serve.Api.model_id ()))

let system_cmd =
  let run seed scale jobs optimiser model_dir remote trace verbose =
    setup_logging verbose;
    setup_jobs jobs;
    let model = load_model model_dir in
    let pll_query = pll_query_of_remote ~fallback:model remote in
    let scale, spec = resolve_scale scale in
    let cfg =
      Hieropt.Hierarchy.make_config ~seed ~scale ?spec ~optimiser ~model_dir
        ()
    in
    with_lifecycle @@ fun () ->
    with_trace ~label:"coordinator" trace @@ fun () ->
    let result =
      Hieropt.Hierarchy.run_system_level
        ~progress:(fun s -> Fmt.pr "[system] %s@." s)
        ?pll_query cfg ~model
    in
    Fmt.pr "%s@."
      (Hieropt.Experiments.table2 ?selected:result.Hieropt.Hierarchy.selected
         result.Hieropt.Hierarchy.rows)
  in
  let info =
    Cmd.info "system"
      ~doc:"Re-run the system-level optimisation over a saved table model."
  in
  Cmd.v info
    Term.(
      const run $ seed_t $ scale_t $ jobs_t $ optimiser_t
      $ model_dir_t $ remote_t $ trace_t $ verbose_t)

(* ---- yield ---- *)

let yield_cmd =
  let kvco_t =
    Arg.(
      required
      & opt (some si) None
      & info [ "kvco" ] ~docv:"HZ_PER_V" ~doc:"VCO gain, e.g. 400meg.")
  in
  let ivco_t =
    Arg.(
      required
      & opt (some si) None
      & info [ "ivco" ] ~docv:"A" ~doc:"VCO current, e.g. 8m.")
  in
  let filt_t name ~doc ~default =
    Arg.(
      value
      & opt (positive si ~zero:0.0) (Repro_util.Si.parse default)
      & info [ name ] ~absent:default ~doc)
  in
  let samples_t =
    Arg.(
      value
      & opt (positive int ~zero:0) 500
      & info [ "samples" ] ~doc:"MC sample count.")
  in
  let run model_dir kvco ivco c1 c2 r1 samples seed jobs verbose =
    setup_logging verbose;
    setup_jobs jobs;
    let model = load_model model_dir in
    let cfg = Hieropt.Pll_problem.default_config ~model in
    match Hieropt.Pll_problem.evaluate_point cfg ~kvco ~ivco ~c1 ~c2 ~r1 with
    | Error e ->
      Fmt.epr "design point failed: %s@." e;
      exit 1
    | Ok row ->
      Fmt.pr "%a@." Hieropt.Pll_problem.pp_row row;
      let y =
        Hieropt.Yield.behavioural ~n:samples
          ~prng:(Repro_util.Prng.create seed)
          cfg row
      in
      Fmt.pr "yield: %a@." Repro_util.Stats.pp_yield y
  in
  let info =
    Cmd.info "yield" ~doc:"Monte-Carlo yield of a system design point."
  in
  Cmd.v info
    Term.(
      const run $ model_dir_t $ kvco_t $ ivco_t
      $ filt_t "c1" ~doc:"Loop filter C1." ~default:"10p"
      $ filt_t "c2" ~doc:"Loop filter C2." ~default:"0.6p"
      $ filt_t "r1" ~doc:"Loop filter R1." ~default:"6k"
      $ samples_t $ seed_t $ jobs_t $ verbose_t)

(* ---- export ---- *)

let export_cmd =
  let format_t =
    Arg.(
      value
      & opt (enum [ ("va", `Va); ("verilog-a", `Va); ("spice", `Spice) ]) `Va
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,va) (Verilog-A \\$table_model module over \
             the saved .tbl files, the paper's Listings 1-2) or \
             $(b,spice) (subcircuit of the median Pareto sizing, \
             re-parseable by this tool).")
  in
  let output_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of standard output.")
  in
  let run model_dir format output verbose =
    setup_logging verbose;
    let table = load_model model_dir in
    let body =
      match format with
      | `Va -> Repro_netlist.Export.verilog_a table
      | `Spice -> Repro_netlist.Export.spice table
    in
    match output with
    | None -> print_string body
    | Some path -> (
      try Out_channel.with_open_bin path (fun oc -> output_string oc body)
      with Sys_error msg -> die 1 "cannot write %s: %s" path msg)
  in
  let info =
    Cmd.info "export"
      ~doc:
        "Render a saved table model as a Verilog-A behavioural module or \
         a SPICE subcircuit (byte-identical to the server's \
         /v1/models/default/export)."
  in
  Cmd.v info Term.(const run $ model_dir_t $ format_t $ output_t $ verbose_t)

(* ---- serve ---- *)

let serve_cmd =
  let addr_t =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_t =
    Arg.(
      value & opt int 8190
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks a free one).")
  in
  (* Kept only because [perfbench/main.ml] starts the server with
     [--reactors 1]; the server runs one event loop, so any other value
     is a usage error.  Remove the flag together with that argument. *)
  let reactors_t =
    let one =
      let parse s =
        match Arg.conv_parser Arg.int s with
        | Ok 1 -> Ok ()
        | Ok _ ->
          Error
            (`Msg
              (Printf.sprintf "%S: only 1 is accepted (one event loop)" s))
        | Error e -> Error e
      in
      Arg.conv ~docv:"N" (parse, fun ppf () -> Fmt.int ppf 1)
    in
    Arg.(
      value & opt one ()
      & info [ "reactors" ] ~docv:"N"
          ~doc:"Event loops handling connections; only 1 is accepted.")
  in
  let run model_dir addr port () trace verbose =
    setup_logging verbose;
    (* loaded before the bind, so the "serving" line means ready *)
    let model = load_model model_dir in
    let api = Repro_serve.Api.create ~version ~model () in
    with_trace ~label:"serve" trace @@ fun () ->
    let server =
      match Repro_serve.Server.start ~addr ~port ~api () with
      | server -> server
      | exception Unix.Unix_error (code, _, _) ->
        die exit_serve "cannot bind %s:%d: %s" addr port
          (Unix.error_message code)
      | exception Failure msg -> die exit_serve "cannot start server: %s" msg
    in
    Repro_serve.Server.install_signal_handlers server;
    Fmt.pr "serving %s on http://%s:%d@." model_dir addr
      (Repro_serve.Server.port server);
    Repro_serve.Server.wait server;
    Fmt.pr "%s@." (Repro_engine.Telemetry.line ())
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Serve the saved table model in --model-dir over HTTP as model \
         $(b,default) (SIGTERM drains gracefully; restart to serve \
         another model)."
  in
  Cmd.v info
    Term.(
      const run $ model_dir_t $ addr_t $ port_t $ reactors_t $ trace_t
      $ verbose_t)

(* ---- query ---- *)

let query_cmd =
  let point_t =
    Arg.(
      value
      & opt_all (pair si si) []
      & info [ "point" ] ~docv:"KVCO,IVCO"
          ~doc:
            "Query point with SPICE suffixes, e.g. '400meg,8m' \
             (repeatable; one request carries the whole batch).")
  in
  let metrics_t =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the telemetry snapshot (server's when --remote).")
  in
  let wait_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "wait-ready" ] ~docv:"SECONDS"
          ~doc:"Poll the server's /healthz up to $(docv) before querying.")
  in
  let print_json j = Fmt.pr "%s@." (Json.to_string j) in
  let print_results results =
    print_json
      (Json.Obj
         [
           ( "results",
             Json.Arr
               (Array.to_list
                  (Array.map Repro_serve.Api.point_eval_to_json results)) );
         ])
  in
  let run model_dir remote points metrics wait_ready verbose =
    setup_logging verbose;
    let points = Array.of_list points in
    if points = [||] && not metrics then
      die 124 "nothing to do: pass --point and/or --metrics";
    match remote with
    | Some spec ->
      let host, port =
        match Repro_serve.Remote.parse_endpoint spec with
        | Ok v -> v
        | Error msg -> die exit_serve "--remote %s: %s" spec msg
      in
      let client = Repro_serve.Client.create ~host ~port () in
      (match wait_ready with
      | Some deadline
        when not (Repro_serve.Client.wait_ready ~deadline client) ->
        die exit_serve "--remote %s: server not ready after %gs" spec deadline
      | _ -> ());
      let check = function
        | Ok v -> v
        | Error e ->
          die exit_serve "%s" (Repro_serve.Client.error_to_string e)
      in
      if Array.length points > 0 then
        print_results
          (check
             (Repro_serve.Client.query_points client
                ~model:Repro_serve.Api.model_id points));
      if metrics then
        print_json (check (Repro_serve.Client.get_json client "/v1/metrics"))
    | None ->
      (* local mode shares the remote path's JSON rendering, so the CI
         smoke test can diff the two outputs byte-for-byte *)
      if Array.length points > 0 then
        print_results
          (Hieropt.Perf_table.eval_points (load_model model_dir) points);
      if metrics then print_json (Repro_serve.Api.metrics_json ())
  in
  let info =
    Cmd.info "query"
      ~doc:
        "Query a table model — a local directory, or a running $(b,hieropt \
         serve) via --remote — with byte-identical output either way."
  in
  Cmd.v info
    Term.(
      const run $ model_dir_t $ remote_t $ point_t $ metrics_t $ wait_t
      $ verbose_t)

(* ---- trace ---- *)

let ok_or_die = function Ok x -> x | Error msg -> die 1 "%s" msg

let trace_merge_cmd =
  let out_t =
    Arg.(
      value
      & opt string "merged.trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the merged trace.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the merged trace (balanced begin/end events, \
             resolvable propagated parent ids, server spans contained \
             in the caller spans that issued them, at least one server \
             span linked to a caller span) and exit non-zero on \
             problems.")
  in
  let files_t =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:
            "The calling process's trace first (e.g. $(b,system \
             --remote)), then one file per server it called (e.g. \
             $(b,serve)).")
  in
  let run out check files verbose =
    setup_logging verbose;
    match files with
    | [] -> assert false (* non_empty *)
    | base_path :: worker_paths ->
      let load path = ok_or_die (Repro_prof.Merge.load path) in
      let base = load base_path in
      let workers = List.map load worker_paths in
      List.iter2
        (fun path w ->
          match Repro_prof.Merge.check_trace_id ~base ~path w with
          | Ok () -> ()
          | Error msg -> Fmt.epr "warning: %s@." msg)
        worker_paths workers;
      let events, labels = Repro_prof.Merge.merge ~base ~workers in
      let n = Repro_prof.Merge.export ~path:out ~labels events in
      Fmt.pr "merged %d process%s, %d events -> %s@."
        (1 + List.length workers)
        (if workers = [] then "" else "es")
        n out;
      if check then begin
        let errors =
          Repro_prof.Merge.validate
            ~coordinator_pid:base.Repro_prof.Merge.pid events
        in
        match errors with
        | [] -> Fmt.pr "trace is coherent@."
        | errors ->
          List.iter (fun e -> Fmt.epr "error: %s@." e) errors;
          die 1 "%d validation error%s" (List.length errors)
            (if List.length errors = 1 then "" else "s")
      end
  in
  let info =
    Cmd.info "merge"
      ~doc:
        "Assemble per-process --trace files (e.g. a $(b,system --remote) \
         run and the $(b,serve) process it queried) into one Chrome \
         trace on the first process's timeline, shifting each other \
         process by the difference of the wall-clock epochs recorded in \
         the traces."
  in
  Cmd.v info Term.(const run $ out_t $ check_t $ files_t $ verbose_t)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Work with Chrome traces recorded by --trace.")
    [ trace_merge_cmd ]

(* ---- report ---- *)

let report_cmd =
  let journal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Journal to read (default: MODEL_DIR/run.journal).")
  in
  let trace_file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also analyse a Chrome trace recorded with --trace and list \
             the slowest spans.")
  in
  let top_t =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"How many slowest spans to list.")
  in
  let profile_t =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Full profile of the --trace file instead of the slowest-span \
             list: per-span-name self-time table, GC/allocation \
             attribution, and per-domain utilization for the whole run \
             and each phase.")
  in
  let folded_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write self-time-weighted folded stacks to FILE, ready for \
             flamegraph.pl (implies $(b,--profile)).")
  in
  let run model_dir journal trace top profile folded verbose =
    setup_logging verbose;
    let ppf = Format.std_formatter in
    let profiling = profile || folded <> None in
    if profiling && trace = None then
      die 1 "--profile needs --trace FILE (a trace recorded with --trace)";
    (* --profile is a trace analysis: only read the journal when one was
       named explicitly, or in the default journal-report mode *)
    if (not profiling) || journal <> None then begin
      let journal_path =
        Option.value journal
          ~default:(Filename.concat model_dir Repro_obs.Journal.default_file)
      in
      ok_or_die
        (Result.bind
           (Repro_obs.Journal.read journal_path)
           (Repro_prof.Report.journal ppf))
    end;
    Option.iter
      (fun path ->
        let p = ok_or_die (Repro_prof.Merge.load path) in
        if profiling then
          ok_or_die (Repro_prof.Report.profile ppf ~path ~top ?folded p)
        else Repro_prof.Report.trace ppf ~top p)
      trace
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Summarise a run journal: per-phase time breakdown, \
         generation-by-generation GA convergence (front size, spread, \
         hypervolume), the evaluation split and warnings — plus the \
         slowest spans of a recorded trace, or with $(b,--profile) a \
         full self-time/GC/utilization profile of it."
  in
  Cmd.v info
    Term.(
      const run $ model_dir_t $ journal_t $ trace_file_t $ top_t $ profile_t
      $ folded_t $ verbose_t)

let main_cmd =
  let doc =
    "hierarchical performance-and-variation optimisation of analogue \
     circuits (DATE 2009 reproduction)"
  in
  Cmd.group (Cmd.info "hieropt" ~version ~doc)
    [
      simulate_cmd;
      characterise_cmd;
      flow_cmd;
      system_cmd;
      yield_cmd;
      export_cmd;
      serve_cmd;
      query_cmd;
      trace_cmd;
      report_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
