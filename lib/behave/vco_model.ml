type params = {
  f0 : float;
  v0 : float;
  kvco : float;
  fmin : float;
  fmax : float;
  jitter : float;
}

let validate p =
  if not (p.fmin > 0.0 && p.fmax >= p.fmin) then
    invalid_arg "Vco_model: need 0 < fmin <= fmax";
  if p.jitter < 0.0 then invalid_arg "Vco_model: negative jitter";
  if p.f0 <= 0.0 then invalid_arg "Vco_model: f0 must be positive"

(* the clamp is written out rather than calling [Floatx.clamp]: a call
   across modules boxes its three float arguments, and the PLL asks for
   the frequency on every time step *)
let frequency p vctl =
  let f = p.f0 +. (p.kvco *. (vctl -. p.v0)) in
  if f < p.fmin then p.fmin else if f > p.fmax then p.fmax else f

(* [Float.floor]'s exact bits without the libm call: on 0 < x < 2^52
   truncation is floor and both conversions are exact; -0.0, negatives,
   nan and larger magnitudes go to [Float.floor].  [advance] inlines it,
   which a caller in another module cannot: its call boxes the argument
   and the result. *)
let[@inline] floor x =
  if 0.0 < x && x < 0x1p52 then Float.of_int (Float.to_int x)
  else Float.floor x

(* all-float, so the per-step updates store in place *)
type osc = {
  mutable f : float; (* Hz, set by [tune] *)
  mutable phi : float; (* cycles *)
  mutable phi_floor : float; (* Float.floor phi, carried between steps *)
}

type t = { params : params; prng : Repro_util.Prng.t option; osc : osc }

let create ?prng params =
  validate params;
  {
    params;
    prng;
    osc = { f = frequency params params.v0; phi = 0.0; phi_floor = 0.0 };
  }

let tune t ~vctl =
  let f = frequency t.params vctl in
  t.osc.f <- f;
  f

let phase t = t.osc.phi

(* Period jitter sigma per cycle means phase diffusion: over an interval
   containing n = f dt cycles the accumulated time error has variance
   n sigma^2, i.e. a phase error (in cycles) of sqrt(n) * sigma * f. *)
let advance t ~dt =
  let osc = t.osc in
  let f = osc.f in
  let dphi = f *. dt in
  let noise =
    match t.prng with
    | None -> 0.0
    | Some prng ->
      if t.params.jitter <= 0.0 then 0.0
      else begin
        let sigma_cycles = sqrt (Float.max dphi 0.0) *. t.params.jitter *. f in
        Repro_util.Prng.gaussian prng ~mean:0.0 ~sigma:sigma_cycles
      end
  in
  osc.phi <- osc.phi +. Float.max 0.0 (dphi +. noise);
  let phi_floor = floor osc.phi in
  let edges = int_of_float phi_floor - int_of_float osc.phi_floor in
  osc.phi_floor <- phi_floor;
  edges

let reset t =
  t.osc.phi <- 0.0;
  t.osc.phi_floor <- 0.0
