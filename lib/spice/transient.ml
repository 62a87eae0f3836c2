module Vec = Repro_linalg.Vec
module Telemetry = Repro_engine.Telemetry

type options = {
  t_stop : float;
  dt : float;
  dt_min : float;
  ic : (string * float) list;
  skip_dcop : bool;
  max_newton : int;
  noise : Repro_util.Prng.t option;
}

let default_options ~t_stop ~dt =
  { t_stop; dt; dt_min = dt /. 1024.0; ic = []; skip_dcop = false;
    max_newton = 30; noise = None }

exception Step_failure of float

type result = {
  compiled : Mna.compiled;
  rtimes : float array;
  states : float array array; (* per recorded step, full unknown vector *)
  newton_total : int;
}

let times r = r.rtimes

let wave_of_index r idx =
  Waveform.create r.rtimes (Array.map (fun st -> st.(idx)) r.states)

let node_wave r name =
  let node = Mna.node_of_name r.compiled name in
  match Mna.node_index r.compiled node with
  | None -> Waveform.create r.rtimes (Array.map (fun _ -> 0.0) r.rtimes)
  | Some i -> wave_of_index r i

let source_current_wave r name = wave_of_index r (Mna.branch_index r.compiled name)

let final_solution r = r.states.(Array.length r.states - 1)
let total_newton_iterations r = r.newton_total

(* internal control-flow escape for the result-based driver *)
exception Abort of Solver_error.t

let run_result ?solver:_ ?workspace compiled opts =
  if opts.t_stop <= 0.0 || opts.dt <= 0.0 then
    invalid_arg "Transient.run: t_stop and dt must be positive";
  (* default to the domain's persistent workspace: the DC start and the
     stepping loop share factors, and they survive into the next
     same-topology run on this domain (Monte-Carlo samples) *)
  let workspace =
    match workspace with Some w -> w | None -> Mna.domain_workspace ()
  in
  let steps = ref 0 and halvings = ref 0 and newton_total = ref 0 in
  (* published once per transient, never per step: each update takes
     the domain's Telemetry lock *)
  let publish () =
    Telemetry.incr "tran.runs";
    Telemetry.incr "tran.steps" ~by:!steps;
    Telemetry.incr "tran.halvings" ~by:!halvings;
    Telemetry.incr "tran.newton" ~by:!newton_total
  in
  match
    begin
  let n = Mna.size compiled in
  let x =
    if opts.skip_dcop then Vec.create n
    else
      match Dcop.solve_result ~workspace compiled with
      | Ok dc -> Vec.copy dc.Dcop.solution
      | Error e -> raise (Abort e)
  in
  (* start-up kick: override chosen node voltages *)
  List.iter
    (fun (name, v) ->
      let node = Mna.node_of_name compiled name in
      match Mna.node_index compiled node with
      | None -> invalid_arg "Transient.run: cannot override ground"
      | Some i -> x.(i) <- v)
    opts.ic;
  let ncaps = Mna.cap_count compiled in
  let v_prev = Array.init ncaps (fun k -> Mna.cap_voltage compiled k x) in
  let i_prev = Array.make ncaps 0.0 in
  let geq = Array.make ncaps 0.0 in
  let ieq = Array.make ncaps 0.0 in
  let rec_times = ref [ 0.0 ] in
  let rec_states = ref [ Vec.copy x ] in
  (* first step uses BE (no cap-current history yet) *)
  let first = ref true in
  let t = ref 0.0 in
  let h = ref opts.dt in
  while !t < opts.t_stop -. (opts.dt /. 2.0) do
    let step_ok h_try =
      let use_be = !first in
      (* sample the thermal noise currents once per attempted step;
         white noise filled up to the step Nyquist bandwidth 1/(2 h) *)
      let injections =
        match opts.noise with
        | None -> [||]
        | Some prng ->
          let stamps = Mna.channel_noise_stamps compiled ~x in
          let out = ref [] in
          Array.iter
            (fun (hi, lo, density) ->
              let sigma = density /. sqrt (2.0 *. h_try) in
              let amps = Repro_util.Prng.gaussian prng ~mean:0.0 ~sigma in
              if hi >= 0 then out := (hi, amps) :: !out;
              if lo >= 0 then out := (lo, -.amps) :: !out)
            stamps;
          Array.of_list !out
      in
      Mna.companion_fill compiled ~use_be ~h:h_try ~v_prev ~i_prev ~geq ~ieq;
      let x_try = Vec.copy x in
      let report =
        Mna.newton ~max_iter:opts.max_newton ~injections ~workspace
          compiled ~x:x_try
          ~time:(!t +. h_try) ~gmin:1e-12 ~source_scale:1.0
          ~cap_mode:(Mna.Companion { geq; ieq })
      in
      newton_total := !newton_total + report.Mna.iterations;
      if report.Mna.converged then Some x_try else None
    in
    let rec attempt h_try =
      if h_try < opts.dt_min then
        raise (Abort (Solver_error.Step_underflow { time = !t }));
      match step_ok h_try with
      | Some x_new -> (h_try, x_new)
      | None ->
        incr halvings;
        attempt (h_try /. 2.0)
    in
    let h_used, x_new = attempt !h in
    (* update capacitor history from the accepted step *)
    Mna.cap_history compiled ~x:x_new ~geq ~ieq ~v_prev ~i_prev;
    Array.blit x_new 0 x 0 n;
    t := !t +. h_used;
    incr steps;
    first := false;
    rec_times := !t :: !rec_times;
    rec_states := Vec.copy x :: !rec_states;
    (* recover the nominal step after a halving *)
    h := Float.min opts.dt (h_used *. 2.0)
  done;
  {
    compiled;
    rtimes = Array.of_list (List.rev !rec_times);
    states = Array.of_list (List.rev !rec_states);
    newton_total = !newton_total;
  }
    end
  with
  | r ->
    publish ();
    Ok r
  | exception Abort e ->
    publish ();
    Error e

let run ?workspace compiled opts =
  match run_result ?workspace compiled opts with
  | Ok r -> r
  | Error (Solver_error.Step_underflow { time }) -> raise (Step_failure time)
  | Error (Solver_error.No_convergence { detail; _ }) ->
    raise (Dcop.No_convergence detail)
