type vco_params = {
  wn : float;
  ln : float;
  wp : float;
  lp : float;
  wcn : float;
  wcp : float;
  lc : float;
}

let vco_param_names = [| "wn"; "ln"; "wp"; "lp"; "wcn"; "wcp"; "lc" |]

let vco_params_of_vector v =
  if Array.length v <> 7 then
    invalid_arg "Topologies.vco_params_of_vector: need 7 parameters";
  {
    wn = v.(0);
    ln = v.(1);
    wp = v.(2);
    lp = v.(3);
    wcn = v.(4);
    wcp = v.(5);
    lc = v.(6);
  }

let vco_vector_of_params p =
  [| p.wn; p.ln; p.wp; p.lp; p.wcn; p.wcp; p.lc |]

let w_range = (10e-6, 100e-6)
let l_range = (0.12e-6, 1e-6)

let vco_bounds =
  [| w_range; l_range; w_range; l_range; w_range; w_range; l_range |]

let vco_default =
  {
    wn = 20e-6;
    ln = 0.2e-6;
    wp = 40e-6;
    lp = 0.2e-6;
    wcn = 30e-6;
    wcp = 60e-6;
    lc = 0.24e-6;
  }

(* Current-starved ring oscillator (paper Figure 6).

   Bias branch: Vctl drives NMOS [mbn] whose current is mirrored through
   the diode-connected PMOS [mbp] onto node vbp; vbp gates the top
   starving PMOS of each stage while vctl gates the bottom starving NMOS
   directly, so the stage current (and hence frequency) follows Vctl. *)
let ring_vco ?(stages = 5) ?(vdd = 1.2) ~vctl p =
  if stages < 3 || stages mod 2 = 0 then
    invalid_arg "Topologies.ring_vco: stages must be odd and >= 3";
  let net = Netlist.create () in
  Netlist.vsource net "Vdd" "vdd" "0" (Source.Dc vdd);
  Netlist.vsource net "Vctl" "vctl" "0" (Source.Dc vctl);
  (* bias mirror *)
  Netlist.mosfet net "mbn" ~drain:"vbp" ~gate:"vctl" ~source:"0"
    ~model:Mosfet.nmos_012 ~w:p.wcn ~l:p.lc;
  Netlist.mosfet net "mbp" ~drain:"vbp" ~gate:"vbp" ~source:"vdd"
    ~model:Mosfet.pmos_012 ~w:p.wcp ~l:p.lc;
  let out i = Printf.sprintf "s%d" (((i - 1) mod stages) + 1) in
  for i = 1 to stages do
    let input = out (i - 1 + stages) (* previous stage output; s_stages feeds s1 *)
    and output = out i in
    let sp = Printf.sprintf "sp%d" i and sn = Printf.sprintf "sn%d" i in
    Netlist.mosfet net
      (Printf.sprintf "mcp%d" i)
      ~drain:sp ~gate:"vbp" ~source:"vdd" ~model:Mosfet.pmos_012 ~w:p.wcp
      ~l:p.lc;
    Netlist.mosfet net
      (Printf.sprintf "mp%d" i)
      ~drain:output ~gate:input ~source:sp ~model:Mosfet.pmos_012 ~w:p.wp
      ~l:p.lp;
    Netlist.mosfet net
      (Printf.sprintf "mn%d" i)
      ~drain:output ~gate:input ~source:sn ~model:Mosfet.nmos_012 ~w:p.wn
      ~l:p.ln;
    Netlist.mosfet net
      (Printf.sprintf "mcn%d" i)
      ~drain:sn ~gate:"vctl" ~source:"0" ~model:Mosfet.nmos_012 ~w:p.wcn
      ~l:p.lc
  done;
  net

let rc_lowpass ~r ~c ~vin =
  let net = Netlist.create () in
  Netlist.vsource net "Vin" "in" "0" vin;
  Netlist.resistor net "R1" "in" "out" r;
  Netlist.capacitor net "C1" "out" "0" c;
  net

let voltage_divider ~r1 ~r2 ~vin =
  let net = Netlist.create () in
  Netlist.vsource net "Vin" "in" "0" (Source.Dc vin);
  Netlist.resistor net "R1" "in" "out" r1;
  Netlist.resistor net "R2" "out" "0" r2;
  net

let inverter ?(vdd = 1.2) ~wn ~wp ~l vin =
  let net = Netlist.create () in
  Netlist.vsource net "Vdd" "vdd" "0" (Source.Dc vdd);
  Netlist.vsource net "Vin" "in" "0" vin;
  Netlist.mosfet net "mp" ~drain:"out" ~gate:"in" ~source:"vdd"
    ~model:Mosfet.pmos_012 ~w:wp ~l;
  Netlist.mosfet net "mn" ~drain:"out" ~gate:"in" ~source:"0"
    ~model:Mosfet.nmos_012 ~w:wn ~l;
  Netlist.capacitor net "Cl" "out" "0" 100e-15;
  net

let common_source ?(vdd = 1.2) ~w ~l ~rload vbias =
  let net = Netlist.create () in
  Netlist.vsource net "Vdd" "vdd" "0" (Source.Dc vdd);
  Netlist.vsource net "Vb" "in" "0" (Source.Dc vbias);
  Netlist.resistor net "Rl" "vdd" "out" rload;
  Netlist.mosfet net "m1" ~drain:"out" ~gate:"in" ~source:"0"
    ~model:Mosfet.nmos_012 ~w ~l;
  net
