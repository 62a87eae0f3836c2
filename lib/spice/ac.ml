module Matrix = Repro_linalg.Matrix
module Vec = Repro_linalg.Vec
module Sparse = Repro_linalg.Sparse
module Sparse_lu = Repro_linalg.Sparse_lu

(* (G + jwC) x = b embedded as the real system
   [ G  -wC ] [re]   [b]
   [ wC   G ] [im] = [0]
   Its structure is fixed across the whole sweep (only the frequency
   scales the C stamps), so the symbolic analysis runs once and every
   frequency point is a numeric refactorisation.  [gp]/[cp_*] are
   value-slot lists with their frequency-independent coefficients. *)
type t = {
  compiled : Mna.compiled;
  a : Sparse.t;
  gp : int array;
  gv : float array;
  cp_hi : int array; (* (i, n+j) slots: value -w * cij *)
  cp_lo : int array; (* (n+i, j) slots: value +w * cij *)
  cv : float array;
  mutable num : Sparse_lu.numeric option; (* single-threaded use per [t] *)
}

let linearise compiled (op : Dcop.result) =
  let n = Mna.size compiled in
  (* small-signal conductances: the Newton Jacobian at the op *)
  let g = Matrix.create n n in
  let residual = Vec.create n in
  Mna.assemble compiled ~x:op.Dcop.solution ~time:0.0 ~gmin:1e-12
    ~source_scale:1.0 ~cap_mode:Mna.Dc ~jacobian:g ~residual;
  let c = Matrix.create n n in
  Array.iter
    (fun (a, b, cval) ->
      if a >= 0 then Matrix.add_to c a a cval;
      if b >= 0 then Matrix.add_to c b b cval;
      if a >= 0 && b >= 0 then begin
        Matrix.add_to c a b (-.cval);
        Matrix.add_to c b a (-.cval)
      end)
    (Mna.capacitance_stamps compiled);
  (* G and C are fixed for the lifetime of [t] and w only scales the C
     stamps, so a value-based pattern is exact for every frequency *)
  let builder = Sparse.Builder.create ~n:(2 * n) in
  let gs = ref [] and cs = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let gij = Matrix.get g i j and cij = Matrix.get c i j in
      if gij <> 0.0 then begin
        Sparse.Builder.add builder i j 0.0;
        Sparse.Builder.add builder (n + i) (n + j) 0.0;
        gs := (i, j, gij) :: !gs
      end;
      if cij <> 0.0 then begin
        Sparse.Builder.add builder i (n + j) 0.0;
        Sparse.Builder.add builder (n + i) j 0.0;
        cs := (i, j, cij) :: !cs
      end
    done
  done;
  let a = Sparse.Builder.build builder in
  let gs = Array.of_list !gs and cs = Array.of_list !cs in
  let gp = Array.make (2 * Array.length gs) 0 in
  let gv = Array.make (2 * Array.length gs) 0.0 in
  Array.iteri
    (fun k (i, j, v) ->
      gp.(2 * k) <- Sparse.index a i j;
      gp.((2 * k) + 1) <- Sparse.index a (n + i) (n + j);
      gv.(2 * k) <- v;
      gv.((2 * k) + 1) <- v)
    gs;
  let cp_hi = Array.make (Array.length cs) 0 in
  let cp_lo = Array.make (Array.length cs) 0 in
  let cv = Array.make (Array.length cs) 0.0 in
  Array.iteri
    (fun k (i, j, v) ->
      cp_hi.(k) <- Sparse.index a i (n + j);
      cp_lo.(k) <- Sparse.index a (n + i) j;
      cv.(k) <- v)
    cs;
  { compiled; a; gp; gv; cp_hi; cp_lo; cv; num = None }

let solve_at t ~b w =
  let n = Mna.size t.compiled in
  let v = Sparse.values t.a in
  Array.fill v 0 (Array.length v) 0.0;
  Array.iteri (fun k p -> v.(p) <- v.(p) +. t.gv.(k)) t.gp;
  Array.iteri (fun k p -> v.(p) <- v.(p) -. (w *. t.cv.(k))) t.cp_hi;
  Array.iteri (fun k p -> v.(p) <- v.(p) +. (w *. t.cv.(k))) t.cp_lo;
  let nm = Mna.with_factoriser (fun factor -> factor t.num t.a) in
  t.num <- Some nm;
  let rhs = Array.append b (Array.make n 0.0) in
  let x = Sparse_lu.solve nm rhs in
  (Array.sub x 0 n, Array.sub x n n)

let transfer t ~input ~output f =
  let n = Mna.size t.compiled in
  let bi = Mna.branch_index t.compiled input in
  let b = Array.make n 0.0 in
  b.(bi) <- 1.0;
  let w = 2.0 *. Float.pi *. f in
  let re, im = solve_at t ~b w in
  match Mna.node_index t.compiled (Mna.node_of_name t.compiled output) with
  | None -> Complex.zero
  | Some k -> { Complex.re = re.(k); im = im.(k) }

type sweep_point = {
  freq : float;
  gain : Complex.t;
  magnitude_db : float;
  phase_deg : float;
}

let point_of t ~input ~output freq =
  let gain = transfer t ~input ~output freq in
  {
    freq;
    gain;
    magnitude_db = 20.0 *. log10 (Float.max (Complex.norm gain) 1e-30);
    phase_deg = Complex.arg gain *. 180.0 /. Float.pi;
  }

let sweep t ~input ~output ~freqs =
  Array.map (point_of t ~input ~output) freqs

let logsweep t ~input ~output ~f_start ~f_stop ~points =
  sweep t ~input ~output
    ~freqs:(Repro_util.Floatx.logspace f_start f_stop points)

type bode_summary = {
  dc_gain_db : float;
  unity_gain_freq : float option;
  phase_margin_deg : float option;
  bandwidth_3db : float option;
}

(* continuous phase for margin extraction: unwrap multiples of 360 *)
let unwrap phases =
  let out = Array.copy phases in
  for i = 1 to Array.length out - 1 do
    let d = out.(i) -. out.(i - 1) in
    if d > 180.0 then out.(i) <- out.(i) -. 360.0
    else if d < -180.0 then out.(i) <- out.(i) +. 360.0
  done;
  out

let interp_log_crossing points get_y target =
  (* first downward crossing of target, log-interpolated in frequency *)
  let n = Array.length points in
  let rec find i =
    if i >= n - 1 then None
    else begin
      let a = get_y points.(i) and b = get_y points.(i + 1) in
      if a >= target && b < target then begin
        let t = (a -. target) /. (a -. b) in
        Some
          (exp
             (Repro_util.Floatx.lerp
                (log points.(i).freq)
                (log points.(i + 1).freq)
                t))
      end
      else find (i + 1)
    end
  in
  find 0

let bode_summary points =
  if Array.length points = 0 then invalid_arg "Ac.bode_summary: empty sweep";
  let dc_gain_db = points.(0).magnitude_db in
  let unity_gain_freq = interp_log_crossing points (fun p -> p.magnitude_db) 0.0 in
  let bandwidth_3db =
    interp_log_crossing points (fun p -> p.magnitude_db) (dc_gain_db -. 3.0)
  in
  let phase_margin_deg =
    match unity_gain_freq with
    | None -> None
    | Some fu ->
      let phases = unwrap (Array.map (fun p -> p.phase_deg) points) in
      (* linear interpolation of the unwrapped phase at fu; reference the
         phase to the low-frequency value so an inverting amplifier's
         180 degrees of DC inversion does not count against the margin *)
      let n = Array.length points in
      let rec at i =
        if i >= n - 1 then phases.(n - 1)
        else if points.(i + 1).freq >= fu then begin
          let t =
            (log fu -. log points.(i).freq)
            /. (log points.(i + 1).freq -. log points.(i).freq)
          in
          Repro_util.Floatx.lerp phases.(i) phases.(i + 1) t
        end
        else at (i + 1)
      in
      let phase_at_unity = at 0 -. phases.(0) in
      Some (180.0 +. phase_at_unity)
  in
  { dc_gain_db; unity_gain_freq; phase_margin_deg; bandwidth_3db }
