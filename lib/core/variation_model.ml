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

let analyse_design ?(options = default_options) ?builder ~prng
    (design : Vco_problem.sized_design) =
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
  let mc = Mc.run ~spec:options.process ~n:options.samples ~prng net trial in
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

(* an entry's eval-cache value: the 5 spreads | mc_samples |
   mc_failures; the design itself is the caller's, and a value of any
   other length is a miss *)
let pack_entry e =
  [|
    e.d_kvco;
    e.d_jvco;
    e.d_ivco;
    e.d_fmin;
    e.d_fmax;
    float_of_int e.mc_samples;
    float_of_int e.mc_failures;
  |]

let unpack_entry design v =
  if Array.length v <> 7 then None
  else
    Some
      {
        design;
        d_kvco = v.(0);
        d_jvco = v.(1);
        d_ivco = v.(2);
        d_fmin = v.(3);
        d_fmax = v.(4);
        mc_samples = int_of_float v.(5);
        mc_failures = int_of_float v.(6);
      }

(* the key covers what the caller's salt cannot: the front index (which
   fixes the design's PRNG split), the sample count and the sizing *)
let entry_key ~salt ~samples i (d : Vco_problem.sized_design) =
  Repro_engine.Cache.key ~sample:i ~kind:("variation:" ^ salt)
    (Array.append
       [| float_of_int samples |]
       (T.vco_vector_of_params d.Vco_problem.params))

let analyse_front ?(options = default_options) ?builder ?progress ?cache
    ?on_entry ~prng designs =
  let n = Array.length designs in
  let out = Array.make n None in
  (* every design consumes its prng split in index order, including the
     ones served from the cache, so the analysed designs see the same
     streams as an uncached run *)
  for i = 0 to n - 1 do
    let prng_i = Repro_util.Prng.split prng in
    let key =
      Option.map
        (fun (c, salt) ->
          (c, entry_key ~salt ~samples:options.samples i designs.(i)))
        cache
    in
    let cached =
      Option.bind key (fun (c, k) ->
          Option.bind (Repro_engine.Cache.find c k) (unpack_entry designs.(i)))
    in
    match cached with
    | Some e -> out.(i) <- Some e
    | None ->
      (match progress with Some f -> f i n | None -> ());
      let e = analyse_design ~options ?builder ~prng:prng_i designs.(i) in
      Option.iter (fun (c, k) -> Repro_engine.Cache.store c k (pack_entry e)) key;
      out.(i) <- Some e;
      Option.iter (fun f -> f i e) on_entry
  done;
  Array.map Option.get out
