(** Parameterised circuit generators.

    [ring_vco] is the paper's Figure 6: a 5-stage current-starved ring
    oscillator with 7 designable parameters.  The small test fixtures
    below it are used by the simulator's unit tests and the examples. *)

type vco_params = {
  wn : float;  (** inverter NMOS width, m *)
  ln : float;  (** inverter NMOS length, m *)
  wp : float;  (** inverter PMOS width, m *)
  lp : float;  (** inverter PMOS length, m *)
  wcn : float; (** current-starving NMOS width, m *)
  wcp : float; (** current-starving PMOS width, m *)
  lc : float;  (** starving/bias device length, m *)
}

val vco_param_names : string array
(** The 7 designable-parameter names, in vector order. *)

val vco_params_of_vector : float array -> vco_params
(** @raise Invalid_argument unless the vector has length 7. *)

val vco_vector_of_params : vco_params -> float array

val vco_bounds : (float * float) array
(** Paper §4.2 design space: every L in [0.12µ, 1µ], every W in
    [10µ, 100µ]. *)

val vco_default : vco_params
(** A mid-range sizing that oscillates — used by quickstarts and tests. *)

val ring_vco :
  ?stages:int -> ?vdd:float -> vctl:float -> vco_params -> Netlist.t
(** Build the ring VCO netlist.  Node names: ["vdd"], ["vctl"], ["vbp"]
    (PMOS bias mirror), stage outputs ["s1" .. "sN"].  The supply is
    ["Vdd"], the control source ["Vctl"]; supply current is measured as
    the current through ["Vdd"].  [stages] must be odd and >= 3
    (default 5, the paper's case). *)

(* Test fixtures *)

val rc_lowpass : r:float -> c:float -> vin:Source.t -> Netlist.t
(** ["in"] -- R -- ["out"] -- C -- ground, driven by ["Vin"]. *)

val voltage_divider : r1:float -> r2:float -> vin:float -> Netlist.t
(** ["in"] -- R1 -- ["out"] -- R2 -- ground. *)

val inverter :
  ?vdd:float -> wn:float -> wp:float -> l:float -> Source.t -> Netlist.t
(** [inverter ~wn ~wp ~l vin]: static CMOS inverter with input source
    ["Vin"], output ["out"], 100 fF load. *)

val common_source :
  ?vdd:float -> w:float -> l:float -> rload:float -> float -> Netlist.t
(** [common_source ~w ~l ~rload vbias]: resistor-loaded common-source
    NMOS stage, output ["out"]. *)
