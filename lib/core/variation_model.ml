module V = Repro_spice.Vco_measure
module Mc = Repro_spice.Monte_carlo
module T = Repro_circuit.Topologies

type entry = {
  design : Vco_problem.sized_design;
  d_kvco : float;
  d_jvco : float;
  d_ivco : float;
  d_fmin : float;
  d_fmax : float;
  mc_samples : int;
  mc_failures : int;
}

let pp_entry ppf e =
  Format.fprintf ppf
    "kvco=%.0fMHz/V(∆%.2f%%) jvco=%.3fps(∆%.1f%%) ivco=%.2fmA(∆%.1f%%) [n=%d]"
    (e.design.Vco_problem.perf.V.kvco /. 1e6)
    (100.0 *. e.d_kvco)
    (e.design.Vco_problem.perf.V.jvco *. 1e12)
    (100.0 *. e.d_jvco)
    (e.design.Vco_problem.perf.V.ivco *. 1e3)
    (100.0 *. e.d_ivco)
    e.mc_samples

type options = {
  samples : int;
  process : Repro_circuit.Process.spec;
  measure : Repro_spice.Vco_measure.options;
}

let default_options =
  {
    samples = 100;
    process = Repro_circuit.Process.default;
    measure = V.default_options;
  }

(* lossless sample codec for Monte-Carlo checkpoint rows *)
let perf_codec =
  {
    Mc.encode =
      (fun (p : V.performance) ->
        [| p.V.kvco; p.V.ivco; p.V.jvco; p.V.fmin; p.V.fmax |]);
    decode =
      (fun a ->
        if Array.length a <> 5 then
          failwith "Variation_model: malformed performance row"
        else
          {
            V.kvco = a.(0);
            ivco = a.(1);
            jvco = a.(2);
            fmin = a.(3);
            fmax = a.(4);
          });
  }

let analyse_design ?(options = default_options) ?builder ?checkpoint
    ~prng (design : Vco_problem.sized_design) =
  let net =
    match builder with
    | Some build -> build design.Vco_problem.params
    | None ->
      T.ring_vco ~stages:options.measure.V.stages ~vdd:options.measure.V.vdd
        ~vctl:options.measure.V.vctl_lo design.Vco_problem.params
  in
  let trial perturbed =
    match V.characterise_netlist ~options:options.measure perturbed with
    | Ok p -> Ok p
    | Error f -> Error (V.failure_to_string f)
  in
  let checkpoint =
    Option.map (fun (ck, key) -> (ck, key, perf_codec)) checkpoint
  in
  let mc =
    Mc.run ~spec:options.process ?checkpoint ~n:options.samples ~prng net trial
  in
  let n_ok = Array.length mc.Mc.samples in
  let spread get =
    if n_ok < 3 then 0.0
    else Repro_util.Stats.relative_spread (Array.map get mc.Mc.samples)
  in
  {
    design;
    d_kvco = spread (fun p -> p.V.kvco);
    d_jvco = spread (fun p -> p.V.jvco);
    d_ivco = spread (fun p -> p.V.ivco);
    d_fmin = spread (fun p -> p.V.fmin);
    d_fmax = spread (fun p -> p.V.fmax);
    mc_samples = n_ok;
    mc_failures = mc.Mc.failures;
  }

(* flat 19-float entry encoding for run snapshots: design (7 params +
   5 objectives) | 5 deltas | mc_samples | mc_failures *)
let row_of_entry e =
  Array.concat
    [
      Vco_problem.vector_of_design e.design;
      [| e.d_kvco; e.d_jvco; e.d_ivco; e.d_fmin; e.d_fmax |];
      [| float_of_int e.mc_samples; float_of_int e.mc_failures |];
    ]

let entry_of_row row =
  if Array.length row <> 19 then None
  else
    Option.map
      (fun design ->
        {
          design;
          d_kvco = row.(12);
          d_jvco = row.(13);
          d_ivco = row.(14);
          d_fmin = row.(15);
          d_fmax = row.(16);
          mc_samples = int_of_float row.(17);
          mc_failures = int_of_float row.(18);
        })
      (Vco_problem.design_of_vector (Array.sub row 0 12))

let analyse_front ?options ?builder ?progress ?(already = [||])
    ?on_entry ?checkpoint ~prng designs =
  let n = Array.length designs in
  let k = min (Array.length already) n in
  let out = Array.make n None in
  (* every design consumes its prng split in index order, including the
     restored prefix, so a resumed run sees the same streams *)
  for i = 0 to n - 1 do
    let prng_i = Repro_util.Prng.split prng in
    if i < k then out.(i) <- Some already.(i)
    else begin
      (match progress with Some f -> f i n | None -> ());
      let design_ck =
        Option.map (fun ck -> (ck, "mc." ^ string_of_int i)) checkpoint
      in
      let e =
        analyse_design ?options ?builder ?checkpoint:design_ck
          ~prng:prng_i designs.(i)
      in
      out.(i) <- Some e;
      match on_entry with Some f -> f i e | None -> ()
    end
  done;
  Array.map Option.get out
