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

(* The recording: a row of [size + 1] floats per recorded step, its
   time and then its unknowns, [per_block] rows to a block.  A recorded
   step costs its row's floats, not a copy of the unknowns plus two
   list cells and a boxed time.  A block stays within 128 words, the
   largest size the OCaml 5 major heap pools: it is allocated young and
   promoted into the pools like any small value, never into a block of
   its own from malloc, whose freed memory glibc's per-domain arenas
   keep. *)
type recorder = {
  row : int;
  per_block : int;
  mutable full : float array list;  (* filled blocks, newest first *)
  mutable block : float array;
  mutable filled : int;  (* rows of [block] in use *)
  mutable count : int;
}

let recorder n =
  let row = n + 1 in
  let per_block = max 1 (128 / row) in
  {
    row;
    per_block;
    full = [];
    block = Array.create_float (per_block * row);
    filled = 0;
    count = 0;
  }

let[@inline] record rc ~time x n =
  if rc.filled = rc.per_block then begin
    rc.full <- rc.block :: rc.full;
    rc.block <- Array.create_float (rc.per_block * rc.row);
    rc.filled <- 0
  end;
  let o = rc.filled * rc.row in
  Array.unsafe_set rc.block o time;
  Array.blit x 0 rc.block (o + 1) n;
  rc.filled <- rc.filled + 1;
  rc.count <- rc.count + 1

type result = {
  compiled : Mna.compiled;
  rtimes : float array;
  row : int;
  per_block : int;
  blocks : float array array;  (* the recorder's blocks, oldest first *)
  newton_total : int;
}

(* column [c] of the first [count] recorded rows: 0 is the time, 1 + i
   unknown i *)
let column ~row ~per_block blocks count c =
  Array.init count (fun s ->
      blocks.(s / per_block).(((s mod per_block) * row) + c))

let result_of_recorder compiled rc ~newton_total =
  let blocks = Array.of_list (List.rev (rc.block :: rc.full)) in
  {
    compiled;
    rtimes =
      column ~row:rc.row ~per_block:rc.per_block blocks rc.count 0;
    row = rc.row;
    per_block = rc.per_block;
    blocks;
    newton_total;
  }

let times r = r.rtimes

let wave_of_index r idx =
  Waveform.create r.rtimes
    (column ~row:r.row ~per_block:r.per_block r.blocks
       (Array.length r.rtimes) (idx + 1))

let node_wave r name =
  let node = Mna.node_of_name r.compiled name in
  match Mna.node_index r.compiled node with
  | None -> Waveform.create r.rtimes (Array.map (fun _ -> 0.0) r.rtimes)
  | Some i -> wave_of_index r i

let source_current_wave r name = wave_of_index r (Mna.branch_index r.compiled name)

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
  let t_start = Unix.gettimeofday () in
  let steps = ref 0 and halvings = ref 0 and newton_total = ref 0 in
  (* published once per transient, never per step: each update takes
     the domain's Telemetry lock *)
  let publish () =
    Telemetry.incr "tran.runs";
    Telemetry.incr "tran.steps" ~by:!steps;
    Telemetry.incr "tran.halvings" ~by:!halvings;
    Telemetry.incr "tran.newton" ~by:!newton_total;
    Telemetry.add_time "tran.seconds" (Unix.gettimeofday () -. t_start)
  in
  (* one span per transient; [tran.newton] counts its Newton solves *)
  Repro_obs.Trace.span "tran.run" @@ fun () ->
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
  let cap_mode = Mna.Companion { geq; ieq } in
  (* every attempt starts from [x] in this one buffer *)
  let x_try = Vec.create n in
  let rc = recorder n in
  record rc ~time:0.0 x n;
  (* first step uses BE (no cap-current history yet) *)
  let first = ref true in
  let t = ref 0.0 in
  let h = ref opts.dt in
  while !t < opts.t_stop -. (opts.dt /. 2.0) do
    (* attempt the step, halving it until Newton converges *)
    let h_try = ref !h and accepted = ref false in
    while not !accepted do
      if !h_try < opts.dt_min then
        raise (Abort (Solver_error.Step_underflow { time = !t }));
      let use_be = !first in
      (* sample the thermal noise currents once per attempted step;
         white noise filled up to the step Nyquist bandwidth 1/(2 h) *)
      let injections =
        match opts.noise with
        | None -> [||]
        | Some prng ->
          let stamps = Mna.channel_noise_stamps compiled ~x in
          let two_h = 2.0 *. !h_try in
          let out = ref [] in
          Array.iter
            (fun (hi, lo, density) ->
              let sigma = density /. sqrt two_h in
              let amps = Repro_util.Prng.gaussian prng ~mean:0.0 ~sigma in
              if hi >= 0 then out := (hi, amps) :: !out;
              if lo >= 0 then out := (lo, -.amps) :: !out)
            stamps;
          Array.of_list !out
      in
      Mna.companion_fill compiled ~use_be ~h:!h_try ~v_prev ~i_prev ~geq ~ieq;
      Array.blit x 0 x_try 0 n;
      let report =
        Mna.newton ~max_iter:opts.max_newton ~injections ~workspace
          compiled ~x:x_try ~time:(!t +. !h_try) ~gmin:1e-12 ~source_scale:1.0
          ~cap_mode
      in
      newton_total := !newton_total + report.Mna.iterations;
      if report.Mna.converged then accepted := true
      else begin
        incr halvings;
        h_try := !h_try /. 2.0
      end
    done;
    let h_used = !h_try in
    (* update capacitor history from the accepted step *)
    Mna.cap_history compiled ~x:x_try ~geq ~ieq ~v_prev ~i_prev;
    Array.blit x_try 0 x 0 n;
    t := !t +. h_used;
    incr steps;
    first := false;
    record rc ~time:!t x n;
    (* recover the nominal step after a halving *)
    h := Float.min opts.dt (h_used *. 2.0)
  done;
  result_of_recorder compiled rc ~newton_total:!newton_total
    end
  with
  | r ->
    publish ();
    Ok r
  | exception Abort e ->
    publish ();
    Error e
