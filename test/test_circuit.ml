(* Source, Netlist, netlist front-end, Process, Topologies tests *)
module C = Repro_circuit
module Source = C.Source
module Netlist = C.Netlist
module Process = C.Process
module Topologies = C.Topologies

let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---- sources ---- *)

let test_dc () =
  checkf "dc" 1.5 (Source.value (Source.Dc 1.5) 42.0);
  checkf "dc_value" 1.5 (Source.dc_value (Source.Dc 1.5))

let pulse =
  Source.Pulse
    { v1 = 0.0; v2 = 1.0; delay = 1e-9; rise = 1e-9; fall = 1e-9;
      width = 2e-9; period = 10e-9 }

let test_pulse_phases () =
  checkf "before delay" 0.0 (Source.value pulse 0.5e-9);
  checkf "mid rise" 0.5 (Source.value pulse 1.5e-9);
  checkf "plateau" 1.0 (Source.value pulse 3e-9);
  checkf "mid fall" 0.5 (Source.value pulse 4.5e-9);
  checkf "after fall" 0.0 (Source.value pulse 6e-9);
  (* periodic repetition *)
  checkf "second period plateau" 1.0 (Source.value pulse 13e-9)

let test_pwl () =
  let s = Source.Pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) |] in
  checkf "before first" 0.0 (Source.value s (-1.0));
  checkf "interp" 1.0 (Source.value s 0.5);
  checkf "flat" 2.0 (Source.value s 2.0);
  checkf "after last" 0.0 (Source.value s 10.0)

let test_sin () =
  let s = Source.Sin { offset = 1.0; ampl = 0.5; freq = 1.0; phase_deg = 0.0 } in
  checkf "t=0" 1.0 (Source.value s 0.0);
  Alcotest.(check (float 1e-6)) "quarter period" 1.5 (Source.value s 0.25)

(* ---- netlist ---- *)

let test_node_interning () =
  let n = Netlist.create () in
  Alcotest.(check int) "ground aliases gnd" Netlist.ground (Netlist.node n "gnd");
  Alcotest.(check int) "ground aliases 0" Netlist.ground (Netlist.node n "0");
  Alcotest.(check int) "ground aliases GND" Netlist.ground (Netlist.node n "GND");
  let a = Netlist.node n "a" in
  Alcotest.(check int) "same name same id" a (Netlist.node n "a");
  Alcotest.(check bool) "new name new id" true (Netlist.node n "b" <> a);
  Alcotest.(check int) "node count" 3 (Netlist.node_count n);
  Alcotest.(check string) "node_name inverse" "a" (Netlist.node_name n a)

let test_duplicate_names_rejected () =
  let n = Netlist.create () in
  Netlist.resistor n "R1" "a" "b" 1e3;
  Alcotest.(check bool) "duplicate element name" true
    (try Netlist.resistor n "R1" "a" "0" 1e3; false
     with Invalid_argument _ -> true)

let test_element_order_preserved () =
  let n = Netlist.create () in
  Netlist.resistor n "R1" "a" "b" 1e3;
  Netlist.capacitor n "C1" "b" "0" 1e-12;
  Netlist.vsource n "V1" "a" "0" (Source.Dc 1.0);
  let names = List.map Netlist.element_name (Netlist.elements n) in
  Alcotest.(check (list string)) "insertion order" [ "R1"; "C1"; "V1" ] names

let test_map_elements_copy_semantics () =
  let n = Netlist.create () in
  Netlist.resistor n "R1" "a" "0" 1e3;
  let n2 =
    Netlist.map_elements
      (fun el ->
        match el with
        | Netlist.Resistor r -> Netlist.Resistor { r with value = 2e3 }
        | other -> other)
      n
  in
  let value net =
    match Netlist.elements net with
    | [ Netlist.Resistor { value; _ } ] -> value
    | _ -> Alcotest.fail "unexpected netlist shape"
  in
  checkf "original untouched" 1e3 (value n);
  checkf "copy rewritten" 2e3 (value n2)

let test_mos_count () =
  let net = Topologies.ring_vco ~vctl:0.8 Topologies.vco_default in
  (* 2 bias + 4 per stage x 5 stages = 22 *)
  Alcotest.(check int) "ring VCO transistor count" 22 (Netlist.mos_count net)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_to_spice_mentions_all () =
  let net = Topologies.voltage_divider ~r1:1e3 ~r2:2e3 ~vin:1.0 in
  let deck = Netlist.to_spice net in
  List.iter
    (fun frag ->
      if not (contains deck frag) then Alcotest.failf "deck missing %S" frag)
    [ "R1"; "R2"; "Vin"; ".end" ]

(* ---- netlist front end (repro_netlist) ---- *)

let parse s = Repro_netlist.Elab.netlist_of_string s

let test_parse_rc () =
  let net = parse "R1 in out 1k\nC1 out 0 1n\nVin in 0 2.5\n.end\n" in
  Alcotest.(check int) "3 elements" 3 (List.length (Netlist.elements net));
  match Netlist.elements net with
  | [ Netlist.Resistor { value = r; _ }; Netlist.Capacitor { value = c; _ };
      Netlist.Vsource { source; _ } ] ->
    checkf "r" 1e3 r;
    checkf "c" 1e-9 c;
    checkf "v" 2.5 (Source.dc_value source)
  | _ -> Alcotest.fail "wrong element kinds"

let test_parse_continuation_and_comments () =
  let net =
    parse "* a comment\nR1 in out\n+ 2k ; trailing comment\nVin in 0 1\n"
  in
  match Netlist.elements net with
  | [ Netlist.Resistor { value; _ }; Netlist.Vsource _ ] -> checkf "r" 2e3 value
  | _ -> Alcotest.fail "continuation mishandled"

let test_parse_pulse_source () =
  let net = parse "V1 a 0 PULSE(0 1.2 0 10p 10p 1n 2n)\n" in
  match Netlist.elements net with
  | [ Netlist.Vsource { source = Source.Pulse { v2; width; _ }; _ } ] ->
    checkf "v2" 1.2 v2;
    checkf "width" 1e-9 width
  | _ -> Alcotest.fail "pulse not parsed"

let test_parse_mosfet_with_model () =
  let deck =
    ".model mynmos NMOS vth0=0.4 kp=300u\nM1 d g s mynmos W=10u L=0.2u\nVd d 0 1.2\nVg g 0 0.8\nVs s 0 0\n"
  in
  let net = parse deck in
  let mos =
    List.find_map
      (function
        | Netlist.Mos { w; l; model; _ } -> Some (w, l, model)
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
        | Netlist.Isource _ -> None)
      (Netlist.elements net)
  in
  match mos with
  | Some (w, l, model) ->
    checkf "W" 10e-6 w;
    checkf "L" 0.2e-6 l;
    checkf "vth0 override" 0.4 model.C.Mosfet.vth0;
    checkf "kp override" 300e-6 model.C.Mosfet.kp
  | None -> Alcotest.fail "no mosfet parsed"

let test_parse_mosfet_with_bulk () =
  let net = parse "M1 d g s b nmos W=1u L=0.2u\nVd d 0 1\nVg g 0 1\nVs s 0 0\nVb b 0 0\n" in
  Alcotest.(check int) "bulk accepted and ignored" 1 (Netlist.mos_count net)

let test_parse_errors () =
  let expect_error deck =
    try
      ignore (parse deck);
      Alcotest.failf "expected Netlist_error for %S" deck
    with Repro_netlist.Loc.Netlist_error _ -> ()
  in
  expect_error "R1 a b\n";
  expect_error "R1 a b abc\n";
  expect_error "Qx a b c\n";
  expect_error "M1 d g s unknown_model W=1u L=1u\n";
  expect_error "M1 d g s nmos W=1u\n";
  expect_error ".model foo BJT\n";
  expect_error "+ continuation first\n"

let test_parse_roundtrip_through_to_spice () =
  let net1 = Topologies.voltage_divider ~r1:1e3 ~r2:2e3 ~vin:1.0 in
  let net2 = parse (Netlist.to_spice net1) in
  Alcotest.(check int) "element count preserved"
    (List.length (Netlist.elements net1))
    (List.length (Netlist.elements net2))

let test_parse_subckt () =
  let deck = {|
.subckt divider top bot mid
R1 top mid 1k
R2 mid bot 1k
.ends
Vin in 0 2
Xa in 0 tap divider
Rload tap 0 1meg
|} in
  let net = parse deck in
  (* flattened: xa.R1, xa.R2, plus Vin and Rload *)
  let names = List.map Netlist.element_name (Netlist.elements net) in
  Alcotest.(check (list string)) "flattened names"
    [ "Vin"; "Xa.R1"; "Xa.R2"; "Rload" ] names;
  (* the port node "mid" maps to the outer "tap" *)
  Alcotest.(check bool) "outer node exists" true
    (Netlist.find_node net "tap" <> None);
  (* the divider actually divides under DC *)
  let cm = Repro_spice.Mna.compile net in
  let r = Test_spice.dcop cm in
  Alcotest.(check (float 2e-3)) "divider works" 1.0
    (Repro_spice.Dcop.node_voltage cm r "tap")

let test_parse_subckt_internal_nodes_prefixed () =
  let deck = {|
.subckt cell a
R1 a internal 1k
R2 internal 0 1k
.ends
V1 n1 0 1
Xu n1 cell
Xv n1 cell
|} in
  let net = parse deck in
  Alcotest.(check bool) "instance-scoped internals" true
    (Netlist.find_node net "Xu.internal" <> None
    && Netlist.find_node net "Xv.internal" <> None);
  Alcotest.(check int) "4 resistors" 5 (List.length (Netlist.elements net))

let test_parse_subckt_nested_instantiation () =
  let deck = {|
.subckt leaf a b
R1 a b 2k
.ends
.subckt pair top bot
Xl top m leaf
Xr m bot leaf
.ends
V1 in 0 1
Xp in 0 pair
|} in
  let net = parse deck in
  (* two leaf resistors in series: 4k total from 1 V -> 0.25 mA *)
  let cm = Repro_spice.Mna.compile net in
  let r = Test_spice.dcop cm in
  Alcotest.(check (float 1e-7)) "series through nested subckts" (-2.5e-4)
    (Repro_spice.Dcop.source_current cm r "V1");
  Alcotest.(check bool) "doubly-prefixed node" true
    (Netlist.find_node net "Xp.m" <> None)

let test_parse_subckt_errors () =
  let expect_error deck =
    try ignore (parse deck); Alcotest.failf "expected error for %S" deck
    with Repro_netlist.Loc.Netlist_error _ -> ()
  in
  expect_error ".subckt foo a
R1 a 0 1k
";          (* missing .ends *)
  expect_error "X1 a b nosuch
V1 a 0 1
";            (* unknown subckt *)
  expect_error ".subckt foo a b
R1 a b 1k
.ends
V1 n 0 1
X1 n foo
" (* port count mismatch *)

(* ---- process ---- *)

let test_sample_perturbs_only_mos () =
  let net = Topologies.ring_vco ~vctl:0.8 Topologies.vco_default in
  let prng = Repro_util.Prng.create 42 in
  let p = Process.sample Process.default prng net in
  let shifts =
    List.filter_map
      (function
        | Netlist.Mos { vth_shift; _ } -> Some vth_shift
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
        | Netlist.Isource _ -> None)
      (Netlist.elements p)
  in
  Alcotest.(check int) "all mos perturbed" 22 (List.length shifts);
  Alcotest.(check bool) "shifts non-trivial" true
    (List.exists (fun s -> Float.abs s > 1e-5) shifts);
  (* original untouched *)
  List.iter
    (function
      | Netlist.Mos { vth_shift; _ } ->
        checkf "nominal unchanged" 0.0 vth_shift
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
      | Netlist.Isource _ -> ())
    (Netlist.elements net)

let test_sample_determinism () =
  let net = Topologies.ring_vco ~vctl:0.8 Topologies.vco_default in
  let shifts_of seed =
    let prng = Repro_util.Prng.create seed in
    Process.sample Process.default prng net
    |> Netlist.elements
    |> List.filter_map (function
         | Netlist.Mos { vth_shift; _ } -> Some vth_shift
         | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
         | Netlist.Isource _ -> None)
  in
  Alcotest.(check (list (float 0.0))) "same seed same sample" (shifts_of 9)
    (shifts_of 9);
  Alcotest.(check bool) "different seeds differ" true
    (shifts_of 9 <> shifts_of 10)

let test_mismatch_only_no_global () =
  (* with mismatch-only, big devices get small shifts: check the spread
     scales down with area by comparing two topology sizes *)
  let small = { Topologies.vco_default with Topologies.wn = 10e-6 } in
  ignore small;
  let net = Topologies.ring_vco ~vctl:0.8 Topologies.vco_default in
  let prng = Repro_util.Prng.create 4 in
  let p = Process.sample Process.mismatch_only prng net in
  let shifts =
    List.filter_map
      (function
        | Netlist.Mos { vth_shift; _ } -> Some (Float.abs vth_shift)
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
        | Netlist.Isource _ -> None)
      (Netlist.elements p)
  in
  Alcotest.(check bool) "local shifts small (< 20 mV)" true
    (List.for_all (fun s -> s < 0.02) shifts)

let test_corners () =
  let net = Topologies.inverter ~wn:2e-6 ~wp:4e-6 ~l:0.12e-6 (Source.Dc 0.6) in
  let vth_of corner polarity =
    Process.corner corner net
    |> Netlist.elements
    |> List.find_map (function
         | Netlist.Mos { model; vth_shift; _ } when model.C.Mosfet.polarity = polarity ->
           Some vth_shift
         | Netlist.Mos _ | Netlist.Resistor _ | Netlist.Capacitor _
         | Netlist.Vsource _ | Netlist.Isource _ -> None)
    |> Option.get
  in
  checkf "TT neutral" 0.0 (vth_of Process.Tt C.Mosfet.Nmos);
  Alcotest.(check bool) "SS slow NMOS" true (vth_of Process.Ss C.Mosfet.Nmos > 0.0);
  Alcotest.(check bool) "FF fast PMOS" true (vth_of Process.Ff C.Mosfet.Pmos < 0.0);
  Alcotest.(check bool) "SF splits" true
    (vth_of Process.Sf C.Mosfet.Nmos > 0.0 && vth_of Process.Sf C.Mosfet.Pmos < 0.0);
  Alcotest.(check string) "corner name" "FS" (Process.corner_name Process.Fs)

(* ---- topologies ---- *)

let test_vco_param_vector_roundtrip () =
  let p = Topologies.vco_default in
  let v = Topologies.vco_vector_of_params p in
  Alcotest.(check int) "7 designables" 7 (Array.length v);
  let p2 = Topologies.vco_params_of_vector v in
  Alcotest.(check bool) "roundtrip" true (p = p2)

let test_vco_bounds_match_paper () =
  Alcotest.(check int) "7 bounds" 7 (Array.length Topologies.vco_bounds);
  (* paper ranges: W in [10u, 100u], L in [0.12u, 1u] *)
  Array.iteri
    (fun i (lo, hi) ->
      let name = Topologies.vco_param_names.(i) in
      if String.length name > 0 && name.[0] = 'w' then begin
        checkf "W lower" 10e-6 lo;
        checkf "W upper" 100e-6 hi
      end
      else begin
        checkf "L lower" 0.12e-6 lo;
        checkf "L upper" 1e-6 hi
      end)
    Topologies.vco_bounds

let test_ring_vco_structure () =
  let net = Topologies.ring_vco ~stages:5 ~vctl:0.8 Topologies.vco_default in
  Alcotest.(check bool) "has s1..s5" true
    (List.for_all
       (fun i -> Netlist.find_node net (Printf.sprintf "s%d" i) <> None)
       [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "has bias node" true (Netlist.find_node net "vbp" <> None);
  Alcotest.(check bool) "even stages rejected" true
    (try ignore (Topologies.ring_vco ~stages:4 ~vctl:0.8 Topologies.vco_default); false
     with Invalid_argument _ -> true)

let test_ring_vco_stage_count_param () =
  let net3 = Topologies.ring_vco ~stages:3 ~vctl:0.8 Topologies.vco_default in
  Alcotest.(check int) "3-stage transistor count" (2 + (4 * 3))
    (Netlist.mos_count net3)

let suite =
  [
    Alcotest.test_case "dc source" `Quick test_dc;
    Alcotest.test_case "pulse phases" `Quick test_pulse_phases;
    Alcotest.test_case "pwl source" `Quick test_pwl;
    Alcotest.test_case "sin source" `Quick test_sin;
    Alcotest.test_case "node interning" `Quick test_node_interning;
    Alcotest.test_case "duplicate names" `Quick test_duplicate_names_rejected;
    Alcotest.test_case "element order" `Quick test_element_order_preserved;
    Alcotest.test_case "map_elements copies" `Quick test_map_elements_copy_semantics;
    Alcotest.test_case "ring VCO mos count" `Quick test_mos_count;
    Alcotest.test_case "to_spice contents" `Quick test_to_spice_mentions_all;
    Alcotest.test_case "parse RC deck" `Quick test_parse_rc;
    Alcotest.test_case "parse continuations" `Quick test_parse_continuation_and_comments;
    Alcotest.test_case "parse pulse" `Quick test_parse_pulse_source;
    Alcotest.test_case "parse mosfet + .model" `Quick test_parse_mosfet_with_model;
    Alcotest.test_case "parse mosfet with bulk" `Quick test_parse_mosfet_with_bulk;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "deck roundtrip" `Quick test_parse_roundtrip_through_to_spice;
    Alcotest.test_case "subckt flattening" `Quick test_parse_subckt;
    Alcotest.test_case "subckt internal scoping" `Quick test_parse_subckt_internal_nodes_prefixed;
    Alcotest.test_case "subckt nested instantiation" `Quick test_parse_subckt_nested_instantiation;
    Alcotest.test_case "subckt errors" `Quick test_parse_subckt_errors;
    Alcotest.test_case "process perturbs mos" `Quick test_sample_perturbs_only_mos;
    Alcotest.test_case "process determinism" `Quick test_sample_determinism;
    Alcotest.test_case "mismatch-only magnitudes" `Quick test_mismatch_only_no_global;
    Alcotest.test_case "corners" `Quick test_corners;
    Alcotest.test_case "vco param roundtrip" `Quick test_vco_param_vector_roundtrip;
    Alcotest.test_case "vco bounds = paper ranges" `Quick test_vco_bounds_match_paper;
    Alcotest.test_case "ring vco structure" `Quick test_ring_vco_structure;
    Alcotest.test_case "ring vco stage param" `Quick test_ring_vco_stage_count_param;
  ]
