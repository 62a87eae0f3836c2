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
   and boxes each float it passes or returns; inlined, these read and
   write the loop's state, flat float records and local refs, without
   boxing it.  Each law returns one scalar. *)

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

(* One simulation of a lockstep run: its constants for the run and its
   floating-point state.  Every field is a float, so the record is
   stored flat and a step updates it in place, unboxed. *)
type lane = {
  inj_up : float;  (* the control-node step of each pump state *)
  inj_neutral : float;
  inj_down : float;
  f_target : float;
  mutable vctl : float;
  mutable vc1 : float;
  mutable f : float;
  mutable phi : float;
  mutable phi_floor : float;
  mutable noise : float;  (* the step's VCO phase noise *)
  mutable freq_acc : float;
  mutable f_cycle_avg : float;
  mutable in_band_since : float;
  mutable lock_time : float;
}

(* the same simulation's PFD, divider and lock detector *)
type counts = {
  mutable pfd : Pfd.state;
  mutable count : int;
  mutable in_band : bool;
  mutable locked : bool;
  mutable active_steps : int;
  mutable post_lock_steps : int;
}

(* The one stepping loop, behind [simulate] and [evaluate_batch].  It
   advances [cfgs], which share [opts] and one reference clock, in
   lockstep: a step computes the reference phase and edge once, then
   moves every simulation through the step laws, with the same
   floating-point expressions in the same order as one simulation
   alone, so each result is bit for bit what it would be alone.  One
   simulation's step is a serial chain (the filter's division, the
   tuning law, the phase add); stepping many side by side lets the core
   overlap their chains.  The VCO noise (with [prng], drawn simulation
   by simulation), the lock detector at each reference cycle's end and
   the trace records are passes of their own, so the common pass
   branches on none of them.  Without [record] no trace array is
   allocated, filled or converted. *)
let run ~record ?prng cfgs opts =
  Array.iter
    (fun cfg ->
      Loop_filter.validate cfg.filter;
      Vco_model.validate cfg.vco)
    cfgs;
  if opts.dt <= 0.0 || opts.t_stop <= opts.dt then
    invalid_arg "Pll.simulate: bad time settings";
  if opts.record_stride <= 0 then
    invalid_arg "Pll.simulate: record_stride must be positive";
  let m = Array.length cfgs in
  let fref = if m = 0 then 0.0 else cfgs.(0).fref in
  Array.iter
    (fun cfg ->
      if cfg.n_div < 1 then invalid_arg "Pll.simulate: n_div must be >= 1";
      if not (Float.equal cfg.fref fref) then
        invalid_arg "Pll.simulate: a lockstep batch shares one fref")
    cfgs;
  let dt = opts.dt in
  (* What a step needs that stays fixed for the run is computed here,
     once: the filter matrices, the control-node step of each pump
     state and the reference phase increment. *)
  let coeffs = Array.map (fun cfg -> filter_coeffs cfg.filter ~dt) cfgs in
  let vcos = Array.map (fun cfg -> cfg.vco) cfgs in
  let lanes =
    Array.map
      (fun cfg ->
        let injection state =
          Loop_filter.injection cfg.filter
            ~i_in:(Charge_pump.current cfg.cp state)
            ~dt
        in
        {
          inj_up = injection Pfd.Up;
          inj_neutral = injection Pfd.Neutral;
          inj_down = injection Pfd.Down;
          f_target = target_frequency cfg;
          vctl = cfg.vctl_init;
          vc1 = cfg.vctl_init;
          f = vco_frequency cfg.vco cfg.vctl_init;
          phi = 0.0;
          phi_floor = 0.0;
          noise = 0.0;
          freq_acc = 0.0;
          f_cycle_avg = 0.0;
          in_band_since = 0.0;
          lock_time = 0.0;
        })
      cfgs
  in
  let counts =
    Array.map
      (fun _ ->
        {
          pfd = Pfd.Neutral;
          count = 0;
          in_band = false;
          locked = false;
          active_steps = 0;
          post_lock_steps = 0;
        })
      cfgs
  in
  let ref_increment = fref *. dt in
  let n_steps = int_of_float (Float.ceil (opts.t_stop /. dt)) in
  let n_records =
    if record then ((n_steps - 1) / opts.record_stride) + 1 else 0
  in
  (* simulation [j]'s record [i] is at [j * n_records + i] *)
  let vctl_rec = Array.make (m * n_records) 0.0
  and freq_rec = Array.make (m * n_records) 0.0 in
  let ref_phase = ref 0.0 and ref_floor = ref 0.0 in
  (* Lock detection runs on the frequency averaged over each reference
     cycle: the instantaneous frequency carries the Icp*R1 ripple step
     whenever the pump fires, which would bounce a sample-based detector
     out of band forever.  The cycles are the reference's, so all
     simulations share them. *)
  let cycle_start = ref 0.0 and have_cycle_avg = ref false in
  for step = 0 to n_steps - 1 do
    let t = float_of_int step *. dt in
    (* reference edge; the previous step's floor is carried over *)
    ref_phase := !ref_phase +. ref_increment;
    let floor_now = floor !ref_phase in
    let ref_edge_now = floor_now > !ref_floor in
    ref_floor := floor_now;
    (match prng with
    | None -> ()
    | Some prng ->
      for j = 0 to m - 1 do
        let lane = lanes.(j) in
        lane.noise <- vco_jitter prng vcos.(j) ~f:lane.f ~dt
      done);
    (* [lanes], [counts], [coeffs] and [vcos] all have length [m]; their
       bounds checks cost a quarter of this pass's time *)
    for j = 0 to m - 1 do
      let lane = Array.unsafe_get lanes j
      and c = Array.unsafe_get counts j in
      let state = ref (if ref_edge_now then pfd_ref_edge c.pfd else c.pfd) in
      (* VCO phase, then the divider on each of its rising edges *)
      let phi = vco_phase ~f:lane.f ~dt ~noise:lane.noise lane.phi in
      lane.phi <- phi;
      let phi_floor = floor phi in
      for _ = 1 to int_of_float phi_floor - int_of_float lane.phi_floor do
        c.count <- divider_count ~n:cfgs.(j).n_div c.count;
        if c.count = 0 then state := pfd_div_edge !state
      done;
      lane.phi_floor <- phi_floor;
      (* charge pump into the filter, then the VCO's new tuning *)
      let state = !state in
      c.pfd <- state;
      if state <> Pfd.Neutral then begin
        c.active_steps <- c.active_steps + 1;
        if c.locked then c.post_lock_steps <- c.post_lock_steps + 1
      end;
      let inj =
        match state with
        | Pfd.Up -> lane.inj_up
        | Pfd.Neutral -> lane.inj_neutral
        | Pfd.Down -> lane.inj_down
      in
      let k = Array.unsafe_get coeffs j in
      let vctl = lane.vctl and vc1 = lane.vc1 in
      let vctl_next = filter_vctl k ~vctl ~vc1 ~inj in
      lane.vc1 <- filter_vc1 k ~vctl ~vc1 ~inj;
      lane.vctl <- vctl_next;
      let f = vco_frequency (Array.unsafe_get vcos j) vctl_next in
      lane.f <- f;
      lane.freq_acc <- lane.freq_acc +. (f *. dt)
    done;
    if ref_edge_now && t > !cycle_start then begin
      let span = t -. !cycle_start in
      have_cycle_avg := true;
      cycle_start := t;
      for j = 0 to m - 1 do
        let lane = lanes.(j) and c = counts.(j) in
        let f_avg = lane.freq_acc /. span in
        lane.f_cycle_avg <- f_avg;
        lane.freq_acc <- 0.0;
        let err = Float.abs (f_avg -. lane.f_target) /. lane.f_target in
        if err <= opts.lock_tolerance then begin
          if not c.in_band then begin
            c.in_band <- true;
            lane.in_band_since <- t
          end;
          if (not c.locked) && t -. lane.in_band_since >= opts.lock_hold
          then begin
            c.locked <- true;
            lane.lock_time <- lane.in_band_since
          end
        end
        else begin
          c.in_band <- false;
          c.locked <- false
        end
      done
    end;
    if record && step mod opts.record_stride = 0 then
      for j = 0 to m - 1 do
        let lane = lanes.(j) in
        let i = (j * n_records) + (step / opts.record_stride) in
        vctl_rec.(i) <- lane.vctl;
        freq_rec.(i) <-
          (if !have_cycle_avg then lane.f_cycle_avg else lane.f)
      done
  done;
  Repro_engine.Telemetry.incr "pll.sims" ~by:m;
  Repro_engine.Telemetry.incr "pll.steps" ~by:(m * n_steps);
  Array.mapi
    (fun j cfg ->
      let lane = lanes.(j) and c = counts.(j) in
      let lock_time = if c.locked then Some lane.lock_time else None in
      let cp_duty =
        (* activity after lock (near zero for a clean loop); falls back
           to the whole-run duty when lock never happened *)
        match lock_time with
        | Some t0 ->
          let steps_after = n_steps - int_of_float (t0 /. dt) in
          if steps_after > 0 then
            float_of_int c.post_lock_steps /. float_of_int steps_after
          else 0.0
        | None -> float_of_int c.active_steps /. float_of_int n_steps
      in
      let trace recorded =
        Array.init n_records (fun i ->
            ( float_of_int (i * opts.record_stride) *. dt,
              recorded.((j * n_records) + i) ))
      in
      {
        locked = c.locked;
        lock_time;
        vctl_trace = trace vctl_rec;
        freq_trace = trace freq_rec;
        final_vctl = lane.vctl;
        final_freq = Vco_model.frequency cfg.vco lane.vctl;
        cp_duty;
      })
    cfgs

let simulate ?prng cfg opts = (run ~record:true ?prng [| cfg |] opts).(0)

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

(* the linear stability screen: a loop without a unity-gain crossing,
   or one the analysis calls unstable, is never simulated.  No hard
   Gardner-limit rejection here: the time-domain simulation already
   models the discrete charge-pump granularity, so loops with bandwidth
   too close to the reference simply fail to settle and are caught by
   the lock check. *)
let screen cfg =
  match Pll_linear.analyse (loop_of_config cfg) with
  | None -> Error "loop has no unity-gain crossing"
  | Some a when not a.Pll_linear.stable ->
    Error
      (Printf.sprintf "unstable loop (phase margin %.1f deg)"
         a.Pll_linear.phase_margin_deg)
  | Some a -> Ok a

let performance cfg (a : Pll_linear.analysis) (sim : sim_result) =
  match sim.lock_time with
  | None -> Error "did not lock within the simulated window"
  | Some lock_time ->
    let f_out = target_frequency cfg in
    (* Kundert accumulation: the loop stops correcting phase drift
       faster than its bandwidth, so jitter accumulates over
       tau_loop = 1/(2 pi fc) and J = jvco sqrt(2 fout tau). *)
    let tau = 1.0 /. (2.0 *. Float.pi *. a.Pll_linear.unity_freq) in
    let jitter_sum = cfg.vco.Vco_model.jitter *. sqrt (2.0 *. f_out *. tau) in
    let current =
      cfg.ivco +. cfg.overhead_current
      +. Charge_pump.average_current cfg.cp ~duty:sim.cp_duty
    in
    Ok { lock_time; jitter_sum; current }

let evaluate_slice cfgs =
  let screened = Array.map screen cfgs in
  let sims = Array.make (Array.length cfgs) None in
  (* the configs that pass the screen step in lockstep, one group per
     reference frequency, each in input order *)
  let rec step_groups = function
    | [] -> ()
    | i :: _ as pending ->
      let group, rest =
        List.partition (fun j -> Float.equal cfgs.(j).fref cfgs.(i).fref)
          pending
      in
      let group = Array.of_list group in
      let results =
        run ~record:false
          (Array.map (fun j -> cfgs.(j)) group)
          (default_sim_options cfgs.(i))
      in
      Array.iteri (fun k j -> sims.(j) <- Some results.(k)) group;
      step_groups rest
  in
  step_groups
    (List.filter
       (fun i -> Result.is_ok screened.(i))
       (List.init (Array.length cfgs) Fun.id));
  Array.mapi
    (fun i cfg ->
      Result.bind screened.(i) (fun a ->
          performance cfg a (Option.get sims.(i))))
    cfgs

(* At most this many configurations are screened and stepped at once.
   The core's overlap of the simulations' chains saturates well below
   it, and a slice's state is dead once its results are in: stepping a
   500-draw yield as one group raised perfbench [serve]'s peak RSS by
   0.2 MB. *)
let lockstep_width = 64

let evaluate_batch cfgs =
  let n = Array.length cfgs in
  Array.concat
    (List.init ((n + lockstep_width - 1) / lockstep_width) (fun k ->
         let lo = k * lockstep_width in
         evaluate_slice (Array.sub cfgs lo (min lockstep_width (n - lo)))))

let evaluate cfg = (evaluate_batch [| cfg |]).(0)

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
