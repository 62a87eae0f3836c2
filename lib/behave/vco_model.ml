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

(* [Pll] steps with a copy of this law inlined into its loop; the two
   must stay the same expression *)
let frequency p vctl =
  let f = p.f0 +. (p.kvco *. (vctl -. p.v0)) in
  if f < p.fmin then p.fmin else if f > p.fmax then p.fmax else f
