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

type caps = { cgs : float; cgd : float; cdb : float; csb : float }

let capacitances model ~w ~l =
  let cgate = 0.5 *. model.cox *. w *. l in
  let cover = model.cov *. w in
  let cjunc = model.cj *. w in
  { cgs = cgate +. cover; cgd = cgate +. cover; cdb = cjunc; csb = cjunc }

let sigma_vth model ~w ~l = model.avt /. sqrt (w *. l)
let sigma_kp_rel model ~w ~l = model.akp /. sqrt (w *. l)
