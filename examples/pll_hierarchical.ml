(* The paper's complete hierarchical flow (Figure 4): circuit-level MOO,
   Monte-Carlo variation modelling, combined table model, system-level
   PLL optimisation with the variation model, selection, bottom-up
   verification and yield confirmation.

   Run with:             dune exec examples/pll_hierarchical.exe
   Paper-scale workload: HIEROPT_FULL=1 dune exec examples/pll_hierarchical.exe
   After a Ctrl-C:       run the same command again

   The table model is written to ./hieropt_model/ in the same .tbl format
   the Verilog-A listings of the paper consume.  Every finished
   evaluation and variation-model entry is kept there too, in
   eval.cache, so running again after an interruption replays the
   finished work without simulating it and still produces
   byte-identical artefacts. *)

module H = Hieropt

let () =
  let cfg =
    H.Hierarchy.make_config
      ~scale:(H.Hierarchy.scale_of_env ())
      ~model_dir:"hieropt_model" ()
  in
  Repro_engine.Checkpoint.install_signal_handler ();
  Format.printf "spec: %a@.@." H.Spec.pp cfg.H.Hierarchy.spec;
  let result =
    try H.Hierarchy.run ~progress:(fun s -> Format.printf "[flow] %s@." s) cfg
    with Repro_engine.Checkpoint.Interrupted ->
      Format.eprintf "interrupted — run the same command again to resume@.";
      exit 130
  in
  Format.printf "@.%s@." (H.Experiments.fig7_front result.H.Hierarchy.front);
  Format.printf "%s@." (H.Experiments.table1 result.H.Hierarchy.entries);
  Format.printf "%s@."
    (H.Experiments.table2 ?selected:result.H.Hierarchy.selected
       result.H.Hierarchy.rows);
  (match result.H.Hierarchy.selected with
  | Some row ->
    Format.printf "%s@."
      (H.Experiments.fig8_locking result.H.Hierarchy.pll_config row)
  | None -> Format.printf "no design met the specification@.");
  match result.H.Hierarchy.yield with
  | Some y ->
    Format.printf "%s@."
      (H.Experiments.yield_report y
         ~verification:result.H.Hierarchy.verification)
  | None -> ()
