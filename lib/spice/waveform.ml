type t = { times : float array; values : float array }

let create times values =
  let n = Array.length times in
  if n <> Array.length values then invalid_arg "Waveform.create: length mismatch";
  if n < 1 then invalid_arg "Waveform.create: empty waveform";
  for i = 0 to n - 2 do
    if times.(i + 1) < times.(i) then
      invalid_arg "Waveform.create: times must be non-decreasing"
  done;
  { times; values }

let length w = Array.length w.times

let value_at w t =
  let n = length w in
  if t <= w.times.(0) then w.values.(0)
  else if t >= w.times.(n - 1) then w.values.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if w.times.(mid) <= t then lo := mid else hi := mid
    done;
    let ta = w.times.(!lo) and tb = w.times.(!hi) in
    let va = w.values.(!lo) and vb = w.values.(!hi) in
    if tb > ta then va +. ((vb -. va) *. (t -. ta) /. (tb -. ta)) else va
  end

(* ---- the measurement laws, each written once: the array functions
   below and [Window] apply them to the same pairs of consecutive
   samples in the same order ---- *)

(* a segment from [da] to [db], both relative to the level, crosses it *)
let[@inline] rises da db = da < 0.0 && db >= 0.0
let[@inline] falls da db = da > 0.0 && db <= 0.0

(* the interpolated time at which that segment, from [ta] to [tb],
   reaches the level *)
let[@inline] crossing_time ta tb da db =
  let frac = -.da /. (db -. da) in
  ta +. (frac *. (tb -. ta))

(* |dV/dt| over a segment of positive duration [dt], from the raw
   values *)
let[@inline] slope dt va vb = Float.abs ((vb -. va) /. dt)

(* the segment's area under the trapezoid rule *)
let[@inline] trapezoid ta tb va vb = 0.5 *. (va +. vb) *. (tb -. ta)

(* the time-weighted mean from the trapezoids' sum in time order: one
   sample, or a span of zero, averages to the first sample *)
let time_average ~samples ~t_first ~t_last ~v_first area =
  if samples = 1 then v_first
  else begin
    let span = t_last -. t_first in
    if span <= 0.0 then v_first else area /. span
  end

(* the swing fold: both extremes start at the first sample *)
type extremes = { mutable lo : float; mutable hi : float }

let[@inline] widen e v =
  e.lo <- Float.min e.lo v;
  e.hi <- Float.max e.hi v

(* periods are consecutive differences of crossing times, and the
   frequency is the inverse of their mean taken in time order *)
let periods_between cs =
  if Array.length cs < 2 then [||]
  else Array.init (Array.length cs - 1) (fun i -> cs.(i + 1) -. cs.(i))

let frequency_of_periods ps =
  if Array.length ps = 0 then None
  else begin
    let mean_p = Repro_util.Stats.mean ps in
    if mean_p > 0.0 then Some (1.0 /. mean_p) else None
  end

(* ---- over a recorded waveform ---- *)

type direction = Rising | Falling | Either

let crossings ?(direction = Either) w ~level =
  let out = ref [] in
  for i = 0 to length w - 2 do
    let va = w.values.(i) -. level and vb = w.values.(i + 1) -. level in
    let hit =
      match direction with
      | Rising -> rises va vb
      | Falling -> falls va vb
      | Either -> rises va vb || falls va vb
    in
    if hit && vb <> va then
      out := crossing_time w.times.(i) w.times.(i + 1) va vb :: !out
  done;
  Array.of_list (List.rev !out)

let periods ?(direction = Rising) w ~level =
  periods_between (crossings ~direction w ~level)

let frequency ?(direction = Rising) w ~level =
  frequency_of_periods (periods ~direction w ~level)

let period_jitter_rms ?(direction = Rising) w ~level =
  let ps = periods ~direction w ~level in
  if Array.length ps < 3 then None
  else Some (Repro_util.Stats.stddev ps)

let mean w =
  let n = length w in
  let area = ref 0.0 in
  for i = 0 to n - 2 do
    area :=
      !area
      +. trapezoid w.times.(i) w.times.(i + 1) w.values.(i) w.values.(i + 1)
  done;
  time_average ~samples:n ~t_first:w.times.(0) ~t_last:w.times.(n - 1)
    ~v_first:w.values.(0) !area

let peak_to_peak w =
  let e = { lo = w.values.(0); hi = w.values.(0) } in
  Array.iter (fun v -> widen e v) w.values;
  e.hi -. e.lo

(* ---- as the samples arrive ---- *)

module Window = struct
  (* the float state, a record of floats only, so OCaml stores it flat
     and updating it allocates nothing *)
  type sums = {
    mutable t_seen : float;  (* the last time observed, in or out *)
    mutable t_first : float;  (* the first and latest in-window times *)
    mutable t_prev : float;
    mutable v_first : float;  (* the mean channel's first sample *)
    mutable v_prev : float;  (* ... and its latest *)
    mutable area : float;  (* its trapezoids, in time order *)
  }

  type t = {
    t_start : float;
    t_end : float;
    level : float;
    edges : int array;
    mean_of : int;
    mutable samples : int;  (* in the window so far *)
    s : sums;
    swing : extremes;  (* of the first edge *)
    prev : float array;  (* each edge's latest in-window value *)
    mutable rising : float list;  (* the first edge's, newest first *)
    up : float list array;  (* each edge's crossing slopes, newest first *)
    down : float list array;
  }

  let create ~t_start ~t_end ~level ~edges ~mean =
    let n = Array.length edges in
    {
      t_start;
      t_end;
      level;
      edges;
      mean_of = mean;
      samples = 0;
      s =
        { t_seen = Float.neg_infinity; t_first = 0.0; t_prev = 0.0;
          v_first = 0.0; v_prev = 0.0; area = 0.0 };
      swing = { lo = 0.0; hi = 0.0 };
      prev = Array.make n 0.0;
      rising = [];
      up = Array.make n [];
      down = Array.make n [];
    }

  (* a channel below zero is a grounded node *)
  let[@inline] read x c = if c < 0 then 0.0 else x.(c)

  let observe w t x =
    let s = w.s in
    if t < s.t_seen then
      invalid_arg "Waveform.Window.observe: times must be non-decreasing";
    s.t_seen <- t;
    if t >= w.t_start && t <= w.t_end then begin
      let v = read x w.mean_of in
      if w.samples = 0 then begin
        s.t_first <- t;
        s.v_first <- v;
        for k = 0 to Array.length w.edges - 1 do
          w.prev.(k) <- read x w.edges.(k)
        done;
        w.swing.lo <- w.prev.(0);
        w.swing.hi <- w.prev.(0)
      end
      else begin
        let ta = s.t_prev in
        let dt = t -. ta in
        s.area <- s.area +. trapezoid ta t s.v_prev v;
        for k = 0 to Array.length w.edges - 1 do
          let va = w.prev.(k) and vb = read x w.edges.(k) in
          let da = va -. w.level and db = vb -. w.level in
          if rises da db then begin
            if k = 0 && db <> da then
              w.rising <- crossing_time ta t da db :: w.rising;
            if dt > 0.0 then w.up.(k) <- slope dt va vb :: w.up.(k)
          end
          else if falls da db && dt > 0.0 then
            w.down.(k) <- slope dt va vb :: w.down.(k);
          w.prev.(k) <- vb
        done;
        widen w.swing w.prev.(0)
      end;
      s.t_prev <- t;
      s.v_prev <- v;
      w.samples <- w.samples + 1
    end

  let nonempty w =
    if w.samples = 0 then invalid_arg "Waveform.Window: empty window"

  let rising_crossings w =
    nonempty w;
    List.length w.rising

  let frequency w =
    nonempty w;
    frequency_of_periods (periods_between (Array.of_list (List.rev w.rising)))

  let mean w =
    nonempty w;
    time_average ~samples:w.samples ~t_first:w.s.t_first ~t_last:w.s.t_prev
      ~v_first:w.s.v_first w.s.area

  (* the slopes' mean, summed newest first *)
  let mean_slope = function
    | [] -> 0.0
    | slopes -> Repro_util.Stats.mean (Array.of_list slopes)

  let slews w k =
    nonempty w;
    (mean_slope w.up.(k), mean_slope w.down.(k))

  let extremes w =
    nonempty w;
    (w.swing.lo, w.swing.hi)
end
