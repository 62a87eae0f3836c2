(** Circuit-level optimisation problem (§4.1–4.2): 7 transistor W/L
    parameters → the 5 VCO performance functions.

    Objective vector (all minimised, paper order):
    [jvco; ivco; -kvco; fmin; -fmax] — jitter and current down, gain and
    maximum frequency up, minimum frequency down (to widen the band).

    Top-down specification propagation (Figure 3): the system spec's
    output band becomes a circuit-level coverage constraint
    (fmin <= f_out_low, fmax >= f_out_high), so the front concentrates
    on usable sizings.  Designs that fail to oscillate (or to converge)
    are marked infeasible so NSGA-II's constraint domination discards
    them. *)

type sized_design = {
  params : Repro_circuit.Topologies.vco_params;
  perf : Repro_spice.Vco_measure.performance;
}

val objective_names : string array

val objectives_of_perf : Repro_spice.Vco_measure.performance -> float array
(** The 5-entry minimisation vector. *)

val perf_of_objectives : float array -> Repro_spice.Vco_measure.performance
(** Inverse of {!objectives_of_perf} (sign restoration). *)

val problem :
  ?measure_options:Repro_spice.Vco_measure.options ->
  ?spec:Spec.t ->
  ?builder:(Repro_circuit.Topologies.vco_params -> Repro_circuit.Netlist.t) ->
  ?bounds:(float * float) array ->
  unit ->
  Repro_moo.Problem.t
(** The NSGA-II-ready problem over the paper's design box
    ({!Repro_circuit.Topologies.vco_bounds}); [spec] supplies the
    propagated band-coverage constraint (default {!Spec.default}).

    [builder] swaps the built-in ring-VCO construction for a custom
    netlist factory (e.g. an elaborated [.sp] template) evaluated
    through {!Repro_spice.Vco_measure.characterise_netlist}; [bounds]
    overrides the design box to the template's ranges.  With neither,
    the problem is exactly the paper's built-in one. *)

val design_of_individual : Repro_moo.Nsga2.individual -> sized_design option
(** Decode an individual back to (sizing, performance); [None] for
    infeasible individuals. *)

val front_designs : Repro_moo.Nsga2.individual array -> sized_design array
(** Feasible rank-0 designs of a population, decoded. *)

val thin_front : sized_design array -> max_points:int -> sized_design array
(** Keep at most [max_points] designs, spread along the kvco axis —
    bounds the Monte-Carlo cost of the variation-model step. *)
