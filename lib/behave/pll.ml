type config = {
  fref : float;
  n_div : int;
  cp : Charge_pump.t;
  filter : Loop_filter.params;
  vco : Vco_model.params;
  ivco : float;
  overhead_current : float;
  vctl_init : float;
}

let target_frequency cfg = float_of_int cfg.n_div *. cfg.fref

type sim_options = {
  t_stop : float;
  dt : float;
  lock_tolerance : float;
  lock_hold : float;
  record_stride : int;
}

let default_sim_options cfg =
  let tref = 1.0 /. cfg.fref in
  {
    t_stop = 2e-6;
    dt = tref /. 200.0;
    lock_tolerance = 5e-3;
    lock_hold = 10.0 *. tref;
    record_stride = 20;
  }

type sim_result = {
  locked : bool;
  lock_time : float option;
  vctl_trace : (float * float) array;
  freq_trace : (float * float) array;
  final_vctl : float;
  final_freq : float;
  cp_duty : float;
}

(* ---- The blocks' step laws ----
   Each law is written once, here, and both [run] and
   [measured_output_jitter] call it.  The dev profile compiles every
   module with [-opaque], so a call into another module is never inlined
   and boxes each float it passes or returns; inlined, these keep the
   loop's whole state in local refs the compiler leaves unboxed.  Each
   law returns one scalar. *)

(* [Float.floor]'s exact bits without the libm call: on 0 < x < 2^52
   truncation is floor and both conversions are exact; -0.0, negatives,
   nan and larger magnitudes go to [Float.floor]. *)
let[@inline] floor x =
  if 0.0 < x && x < 0x1p52 then Float.of_int (Float.to_int x)
  else Float.floor x

(* PFD: an edge in the opposite state resets to [Neutral] *)
let[@inline] pfd_ref_edge = function
  | Pfd.Down -> Pfd.Neutral
  | Pfd.Neutral | Pfd.Up -> Pfd.Up

let[@inline] pfd_div_edge = function
  | Pfd.Up -> Pfd.Neutral
  | Pfd.Neutral | Pfd.Down -> Pfd.Down

(* ÷N divider: its output edge is the count's return to 0 *)
let[@inline] divider_count ~n count =
  let count = count + 1 in
  if count >= n then 0 else count

(* Loop filter: backward Euler on
     C2 dvctl/dt = i_in - (vctl - vc1)/R1
     C1 dvc1/dt  = (vctl - vc1)/R1
   solving the 2x2 implicit system analytically.  With a = dt/(R1 C2)
   and b = dt/(R1 C1) the unknowns v = vctl', u = vc1' satisfy
     v (1 + a) - a u = vctl + dt i/C2
     -b v + (1 + b) u = vc1 *)
type filter_coeffs = {
  a : float;
  b : float;
  one_a : float;
  one_b : float;
  det : float;
}

let filter_coeffs (p : Loop_filter.params) ~dt =
  let a = dt /. (p.r1 *. p.c2) in
  let b = dt /. (p.r1 *. p.c1) in
  let one_a = 1.0 +. a and one_b = 1.0 +. b in
  { a; b; one_a; one_b; det = (one_a *. one_b) -. (a *. b) }

let[@inline] filter_vctl k ~vctl ~vc1 ~inj =
  ((k.one_b *. (vctl +. inj)) +. (k.a *. vc1)) /. k.det

let[@inline] filter_vc1 k ~vctl ~vc1 ~inj =
  ((k.b *. (vctl +. inj)) +. (k.one_a *. vc1)) /. k.det

(* VCO tuning law: [Vco_model.frequency]'s expression, which must stay
   the same *)
let[@inline] vco_frequency (p : Vco_model.params) vctl =
  let f = p.f0 +. (p.kvco *. (vctl -. p.v0)) in
  if f < p.fmin then p.fmin else if f > p.fmax then p.fmax else f

(* Period jitter sigma per cycle means phase diffusion: over an interval
   containing n = f dt cycles the accumulated time error has variance
   n sigma^2, i.e. a phase error (in cycles) of sqrt(n) * sigma * f. *)
let[@inline] vco_jitter prng (p : Vco_model.params) ~f ~dt =
  if p.jitter <= 0.0 then 0.0
  else
    Repro_util.Prng.gaussian prng ~mean:0.0
      ~sigma:(sqrt (Float.max (f *. dt) 0.0) *. p.jitter *. f)

let[@inline] vco_phase ~f ~dt ~noise phi =
  phi +. Float.max 0.0 ((f *. dt) +. noise)

(* The one stepping loop behind [simulate] and [evaluate].  Without
   [record] it allocates, fills and converts no trace arrays: [evaluate]
   reads only the lock time and the pump duty, and the traces' fresh
   tuples would otherwise be promoted on every call. *)
let run ~record ?prng cfg opts =
  Loop_filter.validate cfg.filter;
  Vco_model.validate cfg.vco;
  if opts.dt <= 0.0 || opts.t_stop <= opts.dt then
    invalid_arg "Pll.simulate: bad time settings";
  if opts.record_stride <= 0 then
    invalid_arg "Pll.simulate: record_stride must be positive";
  if cfg.n_div < 1 then invalid_arg "Pll.simulate: n_div must be >= 1";
  let dt = opts.dt and vco = cfg.vco and n_div = cfg.n_div in
  (* What a step needs that stays fixed for the run is computed here,
     once: the filter matrix, the control-node step of each pump state and
     the reference phase increment. *)
  let k = filter_coeffs cfg.filter ~dt in
  let injection state =
    Loop_filter.injection cfg.filter
      ~i_in:(Charge_pump.current cfg.cp state)
      ~dt
  in
  let inj_up = injection Pfd.Up
  and inj_neutral = injection Pfd.Neutral
  and inj_down = injection Pfd.Down in
  let ref_increment = cfg.fref *. dt in
  let f_target = target_frequency cfg in
  let n_steps = int_of_float (Float.ceil (opts.t_stop /. dt)) in
  let n_records =
    if record then ((n_steps - 1) / opts.record_stride) + 1 else 0
  in
  let vctl_rec = Array.make n_records 0.0
  and freq_rec = Array.make n_records 0.0 in
  (* the loop's state: reference, PFD, divider, filter, VCO *)
  let ref_phase = ref 0.0 and ref_floor = ref 0.0 in
  let pfd = ref Pfd.Neutral and count = ref 0 in
  let vctl = ref cfg.vctl_init and vc1 = ref cfg.vctl_init in
  let f = ref (vco_frequency vco cfg.vctl_init) in
  let phi = ref 0.0 and phi_floor = ref 0.0 in
  (* Lock detection runs on the frequency averaged over each reference
     cycle: the instantaneous frequency carries the Icp*R1 ripple step
     whenever the pump fires, which would bounce a sample-based detector
     out of band forever. *)
  let in_band = ref false and in_band_since = ref 0.0 in
  let locked = ref false and lock_time = ref 0.0 in
  let active_steps = ref 0 and post_lock_steps = ref 0 in
  let freq_acc = ref 0.0 and cycle_start = ref 0.0 in
  let have_cycle_avg = ref false and f_cycle_avg = ref 0.0 in
  for step = 0 to n_steps - 1 do
    let t = float_of_int step *. dt in
    (* reference edge; the previous step's floor is carried over *)
    ref_phase := !ref_phase +. ref_increment;
    let floor_now = floor !ref_phase in
    let ref_edge_now = floor_now > !ref_floor in
    ref_floor := floor_now;
    if ref_edge_now then pfd := pfd_ref_edge !pfd;
    (* VCO phase, then the divider on each of its rising edges *)
    let noise =
      match prng with
      | None -> 0.0
      | Some prng -> vco_jitter prng vco ~f:!f ~dt
    in
    phi := vco_phase ~f:!f ~dt ~noise !phi;
    let floor_now = floor !phi in
    for _ = 1 to int_of_float floor_now - int_of_float !phi_floor do
      count := divider_count ~n:n_div !count;
      if !count = 0 then pfd := pfd_div_edge !pfd
    done;
    phi_floor := floor_now;
    (* charge pump into the filter, then the VCO's new tuning *)
    let state = !pfd in
    if state <> Pfd.Neutral then begin
      incr active_steps;
      if !locked then incr post_lock_steps
    end;
    let inj =
      match state with
      | Pfd.Up -> inj_up
      | Pfd.Neutral -> inj_neutral
      | Pfd.Down -> inj_down
    in
    let vctl_next = filter_vctl k ~vctl:!vctl ~vc1:!vc1 ~inj in
    vc1 := filter_vc1 k ~vctl:!vctl ~vc1:!vc1 ~inj;
    vctl := vctl_next;
    f := vco_frequency vco vctl_next;
    freq_acc := !freq_acc +. (!f *. dt);
    if ref_edge_now && t > !cycle_start then begin
      let f_avg = !freq_acc /. (t -. !cycle_start) in
      have_cycle_avg := true;
      f_cycle_avg := f_avg;
      freq_acc := 0.0;
      cycle_start := t;
      let err = Float.abs (f_avg -. f_target) /. f_target in
      if err <= opts.lock_tolerance then begin
        if not !in_band then begin
          in_band := true;
          in_band_since := t
        end;
        if (not !locked) && t -. !in_band_since >= opts.lock_hold then begin
          locked := true;
          lock_time := !in_band_since
        end
      end
      else begin
        in_band := false;
        locked := false
      end
    end;
    if record && step mod opts.record_stride = 0 then begin
      let i = step / opts.record_stride in
      vctl_rec.(i) <- !vctl;
      freq_rec.(i) <- (if !have_cycle_avg then !f_cycle_avg else !f)
    end
  done;
  Repro_engine.Telemetry.incr "pll.sims";
  Repro_engine.Telemetry.incr "pll.steps" ~by:n_steps;
  let lock_time = if !locked then Some !lock_time else None in
  let final_vctl = !vctl in
  let final_freq = Vco_model.frequency cfg.vco final_vctl in
  let cp_duty =
    (* activity after lock (near zero for a clean loop); falls back to the
       whole-run duty when lock never happened *)
    match lock_time with
    | Some t0 ->
      let steps_after = n_steps - int_of_float (t0 /. dt) in
      if steps_after > 0 then
        float_of_int !post_lock_steps /. float_of_int steps_after
      else 0.0
    | None -> float_of_int !active_steps /. float_of_int n_steps
  in
  let trace recorded =
    Array.mapi
      (fun i v -> (float_of_int (i * opts.record_stride) *. dt, v))
      recorded
  in
  {
    locked = !locked;
    lock_time;
    vctl_trace = trace vctl_rec;
    freq_trace = trace freq_rec;
    final_vctl;
    final_freq;
    cp_duty;
  }

let simulate ?prng cfg opts = run ~record:true ?prng cfg opts

type performance = {
  lock_time : float;
  jitter_sum : float;
  current : float;
}

let pp_performance ppf p =
  Format.fprintf ppf "lock=%.3f us jitter=%.2f ps current=%.2f mA"
    (p.lock_time *. 1e6) (p.jitter_sum *. 1e12) (p.current *. 1e3)

let loop_of_config cfg =
  {
    Pll_linear.kvco = cfg.vco.Vco_model.kvco;
    icp = 0.5 *. (cfg.cp.Charge_pump.i_up +. cfg.cp.Charge_pump.i_down);
    n_div = cfg.n_div;
    filter = cfg.filter;
  }

let evaluate cfg =
  match Pll_linear.analyse (loop_of_config cfg) with
  | None -> Error "loop has no unity-gain crossing"
  | Some a ->
    if not a.Pll_linear.stable then
      Error
        (Printf.sprintf "unstable loop (phase margin %.1f deg)"
           a.Pll_linear.phase_margin_deg)
    else begin
      (* No hard Gardner-limit rejection here: the time-domain simulation
         already models the discrete charge-pump granularity, so loops
         with bandwidth too close to the reference simply fail to settle
         and are caught by the lock check below. *)
      let sim = run ~record:false cfg (default_sim_options cfg) in
      match sim.lock_time with
      | None -> Error "did not lock within the simulated window"
      | Some lock_time ->
        let f_out = target_frequency cfg in
        (* Kundert accumulation: the loop stops correcting phase drift
           faster than its bandwidth, so jitter accumulates over
           tau_loop = 1/(2 pi fc) and J = jvco sqrt(2 fout tau). *)
        let tau = 1.0 /. (2.0 *. Float.pi *. a.Pll_linear.unity_freq) in
        let jitter_sum =
          cfg.vco.Vco_model.jitter *. sqrt (2.0 *. f_out *. tau)
        in
        let current =
          cfg.ivco +. cfg.overhead_current
          +. Charge_pump.average_current cfg.cp ~duty:sim.cp_duty
        in
        Ok { lock_time; jitter_sum; current }
    end

(* open-loop accumulation probe: RMS time error after [cycles] cycles,
   averaged over independent trials — approximates the closed-loop jitter
   sum when cycles ~ 2 fout tau_loop *)
let measured_output_jitter ~prng cfg ~cycles =
  if cycles <= 0 then invalid_arg "Pll.measured_output_jitter: cycles";
  Vco_model.validate cfg.vco;
  let f_out = target_frequency cfg in
  let vctl_lock =
    cfg.vco.Vco_model.v0
    +. ((f_out -. cfg.vco.Vco_model.f0) /. cfg.vco.Vco_model.kvco)
  in
  let trials = 32 in
  let errors =
    Array.init trials (fun _ ->
        let prng = Repro_util.Prng.split prng in
        let f_lock = vco_frequency cfg.vco vctl_lock in
        let dt = 1.0 /. (4.0 *. f_out) in
        let target_phi = float_of_int cycles in
        let rec spin t phi =
          if phi >= target_phi then
            (* interpolate the time at which phase hit the target *)
            t -. ((phi -. target_phi) /. f_lock)
          else
            let noise = vco_jitter prng cfg.vco ~f:f_lock ~dt in
            spin (t +. dt) (vco_phase ~f:f_lock ~dt ~noise phi)
        in
        let t_hit = spin 0.0 0.0 in
        t_hit -. (target_phi /. f_out))
  in
  Repro_util.Stats.stddev errors
