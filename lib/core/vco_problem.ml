module T = Repro_circuit.Topologies
module V = Repro_spice.Vco_measure
module P = Repro_moo.Problem

type sized_design = {
  params : T.vco_params;
  perf : V.performance;
}

let objective_names = [| "jvco"; "ivco"; "neg_kvco"; "fmin"; "neg_fmax" |]

let objectives_of_perf (p : V.performance) =
  [| p.V.jvco; p.V.ivco; -.p.V.kvco; p.V.fmin; -.p.V.fmax |]

let perf_of_objectives o =
  if Array.length o <> 5 then
    invalid_arg "Vco_problem.perf_of_objectives: need 5 objectives";
  { V.jvco = o.(0); ivco = o.(1); kvco = -.o.(2); fmin = o.(3); fmax = -.o.(4) }

(* Top-down specification propagation (the paper's Figure 3): the system
   level requires the VCO band to cover [f_out_low, f_out_high], so
   band coverage is a circuit-level constraint, keeping the GA away from
   degenerate ultra-slow sizings that would otherwise minimise fmin. *)
let band_violation (spec : Spec.t) (perf : V.performance) =
  let over v limit = Float.max 0.0 ((v -. limit) /. limit) in
  over perf.V.fmin spec.Spec.f_out_low
  +. over spec.Spec.f_out_high perf.V.fmax

let problem ?measure_options ?(spec = Spec.default) ?builder
    ?(bounds = T.vco_bounds) () =
  let characterise params =
    match builder with
    | None -> V.characterise ?options:measure_options params
    | Some build ->
      V.characterise_netlist ?options:measure_options (build params)
  in
  let evaluate x =
    let params = T.vco_params_of_vector x in
    match characterise params with
    | Ok perf ->
      {
        P.objectives = objectives_of_perf perf;
        constraint_violation = band_violation spec perf;
      }
    | Error _ ->
      (* un-simulatable designs lose every constraint-domination
         tournament but still carry gradient through the violation *)
      { P.objectives = Array.make 5 infinity; constraint_violation = 10.0 }
  in
  P.create ~name:"vco-sizing" ~bounds ~objective_names evaluate

let design_of_individual (ind : Repro_moo.Nsga2.individual) =
  if P.feasible ind.Repro_moo.Nsga2.evaluation then
    Some
      {
        params = T.vco_params_of_vector ind.Repro_moo.Nsga2.x;
        perf = perf_of_objectives ind.Repro_moo.Nsga2.evaluation.P.objectives;
      }
  else None

let front_designs pop =
  Repro_moo.Nsga2.pareto_front pop
  |> Array.to_list
  |> List.filter_map design_of_individual
  |> Array.of_list

let thin_front designs ~max_points =
  let n = Array.length designs in
  if max_points <= 0 then invalid_arg "Vco_problem.thin_front: max_points";
  if n <= max_points then Array.copy designs
  else begin
    let sorted = Array.copy designs in
    Array.sort (fun a b -> compare a.perf.V.kvco b.perf.V.kvco) sorted;
    (* evenly spaced picks along the gain axis, endpoints included *)
    Array.init max_points (fun k ->
        let idx =
          int_of_float
            (Float.round
               (float_of_int k *. float_of_int (n - 1)
               /. float_of_int (max_points - 1)))
        in
        sorted.(idx))
  end
