(* The circuit-simulation substrate on its own: parse a SPICE-like deck,
   solve its operating point, run a transient and take measurements —
   the workflow of any analogue designer, minus Cadence.

   Run with: dune exec examples/spice_playground.exe *)

module C = Repro_circuit
module S = Repro_spice

let deck =
  {|* RC band-limited inverter driver
.model fastn NMOS vth0=0.33 kp=380u
.model fastp PMOS vth0=0.30 kp=130u
Vdd vdd 0 1.2
Vin in 0 PULSE(0 1.2 0.2n 50p 50p 2n 4n)
Rd in ing 500
Cg ing 0 20f
mp out ing vdd fastp W=8u L=0.12u
mn out ing 0 fastn W=4u L=0.12u
Cl out 0 50f
.end
|}

(* a solver error ends the example with its message *)
let or_exit = function
  | Ok r -> r
  | Error e ->
    prerr_endline (S.Solver_error.to_string e);
    exit 1

let () =
  Format.printf "deck:@.%s@." deck;
  let net = Repro_netlist.Elab.netlist_of_string deck in
  let cm = S.Mna.compile net in
  (* DC operating point with the input low *)
  let dc = or_exit (S.Dcop.solve_result cm) in
  Format.printf "DC operating point (%s, %d Newton iterations):@."
    dc.S.Dcop.strategy dc.S.Dcop.iterations;
  List.iter
    (fun node ->
      Format.printf "  v(%s) = %.4f V@." node (S.Dcop.node_voltage cm dc node))
    [ "in"; "ing"; "out" ];
  (* transient over a few input periods *)
  let res =
    or_exit
      (S.Transient.run_result cm
         (S.Transient.default_options ~t_stop:12e-9 ~dt:10e-12))
  in
  let vout = S.Transient.node_wave res "out" in
  let idd = S.Transient.source_current_wave res "Vdd" in
  Format.printf "@.transient (12 ns, %d points):@." (Array.length (S.Transient.times res));
  Format.printf "  output swing: %.3f V peak-to-peak@." (S.Waveform.peak_to_peak vout);
  (match S.Waveform.frequency vout ~level:0.6 with
  | Some f -> Format.printf "  output frequency: %s@." (Repro_util.Si.format_unit f "Hz")
  | None -> Format.printf "  output frequency: (not periodic)@.");
  Format.printf "  average supply current: %.3f mA@."
    (-1e3 *. S.Waveform.mean idd);
  Format.printf "  propagation edges (rising crossings at 0.6 V): %d@."
    (Array.length
       (S.Waveform.crossings ~direction:S.Waveform.Rising vout ~level:0.6));
  (* corner analysis: how do the process corners move the delay? *)
  Format.printf "@.corner analysis (50%% crossing of the first falling output edge):@.";
  List.iter
    (fun corner ->
      let cnet = C.Process.corner corner net in
      let ccm = S.Mna.compile cnet in
      let cres =
        or_exit
          (S.Transient.run_result ccm
             (S.Transient.default_options ~t_stop:4e-9 ~dt:10e-12))
      in
      let w = S.Transient.node_wave cres "out" in
      let falls = S.Waveform.crossings ~direction:S.Waveform.Falling w ~level:0.6 in
      match Array.length falls with
      | 0 -> Format.printf "  %s: no edge@." (C.Process.corner_name corner)
      | _ ->
        Format.printf "  %s: t_fall = %.1f ps@."
          (C.Process.corner_name corner)
          (falls.(0) *. 1e12))
    [ C.Process.Tt; C.Process.Ss; C.Process.Ff; C.Process.Sf; C.Process.Fs ]
