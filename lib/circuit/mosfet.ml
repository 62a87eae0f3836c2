type polarity = Nmos | Pmos

type model = {
  name : string;
  polarity : polarity;
  vth0 : float;
  kp : float;
  theta : float;
  n_slope : float;
  clm : float;
  cox : float;
  cov : float;
  cj : float;
  avt : float;
  akp : float;
}

let nmos_012 =
  {
    name = "nmos_012";
    polarity = Nmos;
    vth0 = 0.35;
    kp = 350e-6;
    theta = 0.6;
    n_slope = 1.4;
    clm = 0.02e-6;
    cox = 13.0e-3; (* F/m^2, ~2.65 nm oxide *)
    cov = 0.35e-9; (* F/m *)
    cj = 0.8e-9; (* F/m *)
    avt = 3.5e-9; (* V*m : 3.5 mV*um *)
    akp = 1.0e-8; (* m   : 1 %*um *)
  }

let pmos_012 =
  {
    nmos_012 with
    name = "pmos_012";
    polarity = Pmos;
    vth0 = 0.32;
    kp = 120e-6;
    theta = 0.4;
  }

type eval_result = { ids : float; gm : float; gds : float }

let thermal_voltage = 0.02585 (* kT/q at 300 K *)

(* The device equations, written into [out] as [| ids; gm; gds |].  One
   body serves both [eval] and the MNA Newton path, which calls it per
   device per iteration: it builds no tuple and no record, so a call
   allocates nothing beyond its boxed arguments.

   Overdrive is a softplus: vov = 2 n vt ln(1 + exp u) with
   u = (vgs - vth)/(2 n vt), and sigma = d vov / d vgs is the logistic
   function of u. *)
let eval_into model ~w ~l ~vth_shift ~kp_scale ~vgs ~vds out =
  assert (vds >= 0.0);
  assert (w > 0.0 && l > 0.0);
  let vth = model.vth0 +. vth_shift in
  let s = 2.0 *. model.n_slope *. thermal_voltage in
  let u = (vgs -. vth) /. s in
  let strong = u > 30.0 in
  let e = if strong then 0.0 else exp u in
  let vov =
    if strong then s *. u
    else if u < -30.0 then s *. e
    else s *. log (1.0 +. e)
  in
  let sigma = if strong then 1.0 else e /. (1.0 +. e) in
  let vov = Float.max vov 1e-12 in
  let lambda = model.clm /. l in
  (* mobility reduction: kp_eff = kp / (1 + theta vov) *)
  let mob = 1.0 +. (model.theta *. vov) in
  let kp_eff = model.kp *. kp_scale /. mob in
  let dkp_dvgs = -.kp_eff *. model.theta *. sigma /. mob in
  let beta = kp_eff *. w /. l in
  let dbeta_dvgs = dkp_dvgs *. w /. l in
  (* C1 triode/saturation blend: g(x) = x(2-x) below vdsat, 1 above *)
  let x = vds /. vov in
  let triode = x < 1.0 in
  let g = if triode then x *. (2.0 -. x) else 1.0 in
  let g' = if triode then 2.0 -. (2.0 *. x) else 0.0 in
  let clm_f = 1.0 +. (lambda *. vds) in
  let half_bv2 = 0.5 *. beta *. vov *. vov in
  out.(0) <- half_bv2 *. g *. clm_f;
  (* dx/dvgs = -vds sigma / vov^2 *)
  out.(1) <-
    clm_f
    *. ((0.5 *. dbeta_dvgs *. vov *. vov *. g)
       +. (beta *. vov *. sigma *. g)
       -. (0.5 *. beta *. g' *. vds *. sigma));
  out.(2) <- (half_bv2 *. g' /. vov *. clm_f) +. (half_bv2 *. g *. lambda)

let eval model ~w ~l ~vth_shift ~kp_scale ~vgs ~vds =
  let out = Array.make 3 0.0 in
  eval_into model ~w ~l ~vth_shift ~kp_scale ~vgs ~vds out;
  { ids = out.(0); gm = out.(1); gds = out.(2) }

type caps = { cgs : float; cgd : float; cdb : float; csb : float }

let capacitances model ~w ~l =
  let cgate = 0.5 *. model.cox *. w *. l in
  let cover = model.cov *. w in
  let cjunc = model.cj *. w in
  { cgs = cgate +. cover; cgd = cgate +. cover; cdb = cjunc; csb = cjunc }

let sigma_vth model ~w ~l = model.avt /. sqrt (w *. l)
let sigma_kp_rel model ~w ~l = model.akp /. sqrt (w *. l)
