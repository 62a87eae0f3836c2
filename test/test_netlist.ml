(* The repro_netlist front end: tokenizer locations, parameter
   resolution, {range} templating, nested subcircuits, structural
   equivalence, and the Verilog-A / SPICE exporters. *)

module N = Repro_netlist
module C = Repro_circuit
module T = C.Topologies
module H = Hieropt
module V = Repro_spice.Vco_measure

let parse = N.Elab.netlist_of_string

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  at 0

let expect_netlist_error ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected a netlist error mentioning %S" substring
  | exception N.Loc.Netlist_error { msg; _ } ->
    if not (contains_sub (String.lowercase_ascii msg) substring) then
      Alcotest.failf "error %S does not mention %S" msg substring

(* ---- error positions and rendering ---- *)

let test_error_to_string () =
  (match parse "R1 a b\n.end" with
  | _ -> Alcotest.fail "expected an error"
  | exception (N.Loc.Netlist_error { file; pos; _ } as e) ->
    Alcotest.(check (option string)) "no file" None file;
    Alcotest.(check int) "line" 1 pos.N.Loc.line;
    let s = N.Loc.error_to_string e in
    Alcotest.(check bool)
      (Printf.sprintf "%S has the <netlist>:line:col: prefix" s)
      true
      (String.length s > 12 && String.sub s 0 11 = "<netlist>:1"));
  match N.Elab.netlist_of_string ~file:"x.sp" "R1 a b\n.end" with
  | _ -> Alcotest.fail "expected an error"
  | exception (N.Loc.Netlist_error _ as e) ->
    let s = N.Loc.error_to_string e in
    Alcotest.(check bool)
      (Printf.sprintf "%S carries the file name" s)
      true
      (String.sub s 0 7 = "x.sp:1:")

(* ---- tokenizer location properties ---- *)

(* random decks assembled from known words, blank lines, comments and
   continuations: every reported (line, col) must point at the exact
   spot in the original text where the token's spelling starts *)
let deck_text_gen =
  QCheck.Gen.(
    let word =
      string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_range 0 25))
        (int_range 1 6)
    in
    let words = list_size (int_range 1 4) word in
    let line =
      words >>= fun ws ->
      let card = String.concat " " ws in
      frequency
        [
          (4, return card);
          (1, return ("+ " ^ card)); (* continuation *)
          (1, return ("* " ^ card)); (* comment *)
          (1, return "");
        ]
    in
    list_size (int_range 1 12) line >>= fun lines ->
    (* a leading continuation is a (tested elsewhere) error; anchor the
       deck with a plain first card *)
    return (String.concat "\n" ("head card" :: lines)))

let prop_tokenizer_locations =
  QCheck.Test.make ~name:"token positions point into the source" ~count:300
    (QCheck.make deck_text_gen) (fun text ->
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let cards = N.Lexer.tokenize text in
      List.for_all
        (fun card ->
          List.for_all
            (fun tok ->
              let { N.Loc.line; col } = tok.N.Lexer.pos in
              let w = tok.N.Lexer.text in
              line >= 1
              && line <= Array.length lines
              && col >= 1
              && col + String.length w - 1 <= String.length lines.(line - 1)
              && String.sub lines.(line - 1) (col - 1) (String.length w) = w)
            card)
        cards)

let prop_tokenizer_card_order =
  QCheck.Test.make ~name:"tokens advance monotonically within a card"
    ~count:300 (QCheck.make deck_text_gen) (fun text ->
      let pos_le a b =
        a.N.Loc.line < b.N.Loc.line
        || (a.N.Loc.line = b.N.Loc.line && a.N.Loc.col < b.N.Loc.col)
      in
      List.for_all
        (fun card ->
          let rec ordered = function
            | a :: (b :: _ as rest) ->
              pos_le a.N.Lexer.pos b.N.Lexer.pos && ordered rest
            | _ -> true
          in
          ordered card)
        (N.Lexer.tokenize text))

(* ---- parameter resolution ---- *)

let test_param_forward_reference () =
  let net =
    parse
      {|.param total = {2 * half}
.param half = 500
Vin in 0 DC 1
R1 in 0 {total}
.end|}
  in
  match C.Netlist.elements net with
  | [ _; C.Netlist.Resistor { value; _ } ] ->
    Alcotest.(check (float 0.0)) "forward reference resolved" 1000.0 value
  | _ -> Alcotest.fail "unexpected elements"

let test_param_cycle () =
  expect_netlist_error ~substring:"cycle" (fun () ->
      parse ".param a = {b + 1}\n.param b = {a + 1}\nR1 x 0 {a}\n.end")

let test_param_expressions () =
  let net =
    parse
      {|.param base = 2k
.param big = {max(base, 3k) + sqrt(4) * 500}
Vin in 0 DC 1
R1 in 0 {big}
R2 in 0 {-base + (base / 2)}
.end|}
  in
  match C.Netlist.elements net with
  | [ _; C.Netlist.Resistor { value = v1; _ };
      C.Netlist.Resistor { value = v2; _ } ] ->
    Alcotest.(check (float 1e-9)) "max/sqrt arithmetic" 4000.0 v1;
    Alcotest.(check (float 1e-9)) "unary minus" (-1000.0) v2
  | _ -> Alcotest.fail "unexpected elements"

let test_division_by_zero () =
  expect_netlist_error ~substring:"zero" (fun () ->
      parse ".param z = 0\nR1 a 0 {1 / z}\n.end")

(* ---- {range} templating ---- *)

let ranged_deck =
  {|.param r = {range 1k 2k}
.param rload = {2 * r}
Vin in 0 DC 1
R1 in out {r}
R2 out 0 {rload}
.end|}

let test_template_basics () =
  let t = N.Elab.template (N.Parse.deck ranged_deck) in
  Alcotest.(check (array string)) "ranged names" [| "r" |] t.N.Elab.param_names;
  Alcotest.(check bool) "bounds" true (t.N.Elab.bounds = [| (1000.0, 2000.0) |]);
  Alcotest.(check bool) "midpoint default" true (t.N.Elab.default = [| 1500.0 |]);
  match C.Netlist.elements (t.N.Elab.instantiate [| 1250.0 |]) with
  | [ _; C.Netlist.Resistor { value = r1; _ };
      C.Netlist.Resistor { value = r2; _ } ] ->
    Alcotest.(check (float 0.0)) "bound directly" 1250.0 r1;
    Alcotest.(check (float 0.0)) "derived param follows" 2500.0 r2
  | _ -> Alcotest.fail "unexpected elements"

let test_template_requires_range () =
  expect_netlist_error ~substring:"range" (fun () ->
      N.Elab.template (N.Parse.deck "R1 a 0 1k\n.end"))

let test_flatten_rejects_range () =
  expect_netlist_error ~substring:"range" (fun () -> parse ranged_deck)

let test_empty_range () =
  expect_netlist_error ~substring:"empty" (fun () ->
      N.Elab.template (N.Parse.deck ".param r = {range 2k 1k}\nR1 a 0 {r}\n.end"))

let test_template_fingerprint_tracks_content () =
  let fp deck = (N.Elab.template (N.Parse.deck deck)).N.Elab.fingerprint in
  Alcotest.(check string) "deterministic" (fp ranged_deck) (fp ranged_deck);
  let widened =
    ".param r = {range 1k 3k}\n.param rload = {2 * r}\n\
     Vin in 0 DC 1\nR1 in out {r}\nR2 out 0 {rload}\n.end"
  in
  Alcotest.(check bool) "bounds change the fingerprint" true
    (fp ranged_deck <> fp widened)

(* ---- nested subcircuits (the old front end rejected these) ---- *)

let nested_deck =
  {|.param runit = 1k
.subckt ladder a b scale=2
.subckt half p q r={runit * scale}
R1 p m {r}
R2 m q {r}
.ends half
Xtop a mid half
Xbot mid b half r={runit / scale}
.ends ladder
Vin in 0 DC 1
Xl in out ladder scale=4
Rload out 0 1k
.end|}

let test_nested_subckt () =
  let net = parse nested_deck in
  let names = List.map C.Netlist.element_name (C.Netlist.elements net) in
  Alcotest.(check (list string)) "flattening prefixes"
    [ "Vin"; "Xl.Xtop.R1"; "Xl.Xtop.R2"; "Xl.Xbot.R1"; "Xl.Xbot.R2"; "Rload" ]
    names;
  let value name =
    List.find_map
      (function
        | C.Netlist.Resistor { name = n; value; _ } when n = name -> Some value
        | _ -> None)
      (C.Netlist.elements net)
    |> Option.get
  in
  (* header default uses the caller's override of scale=4; the Xbot
     instance overrides r itself *)
  Alcotest.(check (float 1e-9)) "default from overridden scale" 4000.0
    (value "Xl.Xtop.R1");
  Alcotest.(check (float 1e-9)) "per-instance override" 250.0
    (value "Xl.Xbot.R2")

let test_nested_subckt_is_lexically_scoped () =
  (* `half` is defined inside `ladder` and must not leak to the top *)
  expect_netlist_error ~substring:"half" (fun () ->
      parse (nested_deck ^ "\nXoops a b half\n.end"))

let test_subckt_depth_limit () =
  expect_netlist_error ~substring:"deeper" (fun () ->
      parse ".subckt loop a\nXagain a loop\n.ends\nXgo n1 loop\n.end")

(* ---- structural equivalence ---- *)

let test_same_netlist () =
  let a = T.voltage_divider ~r1:1e3 ~r2:2e3 ~vin:1.0 in
  let b = parse "Vin in 0 DC 1\nR1 in out 1k\nR2 out 0 2k\n.end" in
  Alcotest.(check bool) "builder = parsed" true (N.Elab.same_netlist a b);
  let c = parse "Vin in 0 DC 1\nR1 in out 1k\nR2 out 0 2.0001k\n.end" in
  Alcotest.(check bool) "value change detected" false (N.Elab.same_netlist a c);
  let d = parse "Vin in 0 DC 1\nR1 in tap 1k\nR2 tap 0 2k\n.end" in
  Alcotest.(check bool) "node rename detected" false (N.Elab.same_netlist a d)

(* ---- netlist -> to_spice -> parse round trip ---- *)

(* values must survive the Si.format codec exactly for the round trip
   to be byte-exact; normalising through one encode/decode and assuming
   stability pins that down without weakening the equality check *)
let si_stable_gen =
  QCheck.Gen.(
    let* m = int_range 1 9999 in
    let* e = int_range (-9) 6 in
    let v = float_of_int m *. (10.0 ** float_of_int e) in
    let v = Repro_util.Si.parse (Repro_util.Si.format v) in
    return v)

let dc_stable_gen =
  QCheck.Gen.(
    let* m = int_range (-999) 999 in
    let* e = int_range (-3) 2 in
    let v = float_of_int m *. (10.0 ** float_of_int e) in
    let v = float_of_string (Printf.sprintf "%g" v) in
    return v)

let netlist_gen =
  QCheck.Gen.(
    let node = oneofl [ "a"; "b"; "n1"; "out"; "0" ] in
    let two_terminal make =
      let* n1 = node and* n2 = node and* v = si_stable_gen in
      return (make n1 n2 v)
    in
    let element i =
      oneof
        [
          two_terminal (fun n1 n2 v net ->
              C.Netlist.resistor net (Printf.sprintf "R%d" i) n1 n2 v);
          two_terminal (fun n1 n2 v net ->
              C.Netlist.capacitor net (Printf.sprintf "C%d" i) n1 n2 v);
          (let* n1 = node and* n2 = node and* v = dc_stable_gen in
           return (fun net ->
               C.Netlist.vsource net
                 (Printf.sprintf "V%d" i)
                 n1 n2 (C.Source.Dc v)));
          (let* d = node and* g = node and* s = node in
           let* w = si_stable_gen and* l = si_stable_gen in
           let* model = oneofl [ C.Mosfet.nmos_012; C.Mosfet.pmos_012 ] in
           return (fun net ->
               C.Netlist.mosfet net
                 (Printf.sprintf "m%d" i)
                 ~drain:d ~gate:g ~source:s ~model ~w ~l));
        ]
    in
    let* n = int_range 1 8 in
    let rec build i acc =
      if i > n then return (List.rev acc)
      else
        let* el = element i in
        build (i + 1) (el :: acc)
    in
    let* builders = build 1 [] in
    let net = C.Netlist.create () in
    List.iter (fun f -> f net) builders;
    return net)

let codec_stable v =
  Repro_util.Si.parse (Repro_util.Si.format v) = v

let prop_to_spice_roundtrip =
  QCheck.Test.make ~name:"to_spice re-parses to the same netlist" ~count:200
    (QCheck.make netlist_gen) (fun net ->
      let stable = function
        | C.Netlist.Resistor { value; _ } | C.Netlist.Capacitor { value; _ }
          ->
          codec_stable value
        | C.Netlist.Vsource { source = C.Source.Dc v; _ }
        | C.Netlist.Isource { source = C.Source.Dc v; _ } ->
          float_of_string (Printf.sprintf "%g" v) = v
        | C.Netlist.Vsource _ | C.Netlist.Isource _ -> true
        | C.Netlist.Mos { w; l; _ } -> codec_stable w && codec_stable l
      in
      QCheck.assume (List.for_all stable (C.Netlist.elements net));
      N.Elab.same_netlist net (parse (C.Netlist.to_spice net)))

(* ---- the example decks ---- *)

(* dune runtest runs in _build/default/test (the deck files are staged
   as test deps); running the executable by hand from the repo root
   also works via the second candidate *)
let examples_dir =
  List.find Sys.file_exists [ "../examples/netlists"; "examples/netlists" ]

let test_vco_deck_matches_builtin () =
  let t = N.Elab.template_of_file (Filename.concat examples_dir "vco.sp") in
  Alcotest.(check (array string))
    "parameter vector order" T.vco_param_names t.N.Elab.param_names;
  Alcotest.(check bool) "bounds bit-equal" true (t.N.Elab.bounds = T.vco_bounds);
  let opts = V.default_options in
  List.iter
    (fun (label, x) ->
      if
        not
          (N.Elab.same_netlist
             (t.N.Elab.instantiate x)
             (T.ring_vco ~stages:opts.V.stages ~vdd:opts.V.vdd
                ~vctl:opts.V.vctl_lo
                (T.vco_params_of_vector x)))
      then Alcotest.failf "vco.sp differs from the builder at the %s" label)
    [
      ("midpoint", t.N.Elab.default);
      ("lower corner", Array.map fst t.N.Elab.bounds);
      ("upper corner", Array.map snd t.N.Elab.bounds);
    ]

let test_example_decks_parse () =
  List.iter
    (fun name ->
      let net = N.Elab.netlist_of_file (Filename.concat examples_dir name) in
      Alcotest.(check bool)
        (name ^ " has elements")
        true
        (C.Netlist.elements net <> []))
    [ "ota.sp"; "divider.sp" ]

(* ---- exporters ---- *)

let median_params =
  (* Export.spice picks the middle Pareto entry; with the 8 synthetic
     entries that is index 3 *)
  Test_core.synthetic_entries.(3).H.Variation_model.design.H.Vco_problem.params

let test_export_spice_roundtrip () =
  let deck = N.Export.spice Test_core.model in
  let net = N.Elab.subckt_netlist (N.Parse.deck deck) "hieropt_vco" in
  let opts = V.default_options in
  Alcotest.(check bool) "export re-parses into the median ring VCO" true
    (N.Elab.same_netlist net
       (T.ring_vco ~stages:opts.V.stages ~vdd:opts.V.vdd ~vctl:opts.V.vctl_lo
          median_params))

let test_export_determinism () =
  Alcotest.(check string) "spice is a pure function of the table"
    (N.Export.spice Test_core.model)
    (N.Export.spice Test_core.model);
  Alcotest.(check string) "verilog-a is a pure function of the table"
    (N.Export.verilog_a Test_core.model)
    (N.Export.verilog_a Test_core.model)

let test_export_verilog_a_shape () =
  let va = N.Export.verilog_a Test_core.model in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S" needle)
        true (contains_sub va needle))
    [
      "module hieropt_vco";
      "$table_model";
      "\"data.tbl\"";
      "\"kvco_delta.tbl\"";
      "\"p7_data.tbl\"";
      "\"3E,3E\"";
      "endmodule";
    ]

(* Mutated example decks: the lexer, the parser and the elaborator
   raise nothing but [Loc.Netlist_error], whatever the damage.  A
   mutation deletes a span, inserts deck syntax or random bytes,
   duplicates a span or truncates the text. *)
let example_decks =
  List.map
    (fun name ->
      In_channel.with_open_bin (Filename.concat examples_dir name)
        In_channel.input_all)
    [ "divider.sp"; "ota.sp"; "vco.sp" ]

let mutated_deck_arb =
  let syntax =
    [ "{"; "}"; "("; ")"; "="; "+"; "-"; "*"; "/"; ","; "."; ";"; "\n";
      "\n+"; "\n*"; " "; "e"; "1e-"; "0"; "9"; "1.5"; "meg"; "u"; "X";
      "R"; "C"; "M"; "V"; "I"; ".param "; ".subckt "; ".ends"; ".model ";
      ".end"; "{range "; "PULSE("; "nmos"; "gnd" ]
  in
  let mutate text =
    QCheck.Gen.(
      let n = String.length text in
      let* i = int_bound n in
      let* j = int_range i (min n (i + 40)) in
      let before = String.sub text 0 i and after = String.sub text i (n - i) in
      oneof
        [
          return (before ^ String.sub text j (n - j));
          map (fun w -> before ^ w ^ after) (oneofl syntax);
          map
            (fun w -> before ^ w ^ after)
            (string_size ~gen:char (int_range 1 4));
          return (before ^ String.sub text i (j - i) ^ after);
          return before;
        ])
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      let* deck = oneofl example_decks in
      let* k = int_range 1 8 in
      let rec go k text =
        if k = 0 then return text else mutate text >>= go (k - 1)
      in
      go k deck)

let prop_mutated_decks_typed_errors =
  QCheck.Test.make ~name:"mutated decks raise only netlist errors" ~count:300
    mutated_deck_arb (fun text ->
      let typed f = try ignore (f ()) with N.Loc.Netlist_error _ -> () in
      typed (fun () -> N.Lexer.tokenize text);
      typed (fun () -> N.Parse.deck text);
      typed (fun () -> N.Elab.netlist_of_string text);
      true)

let suite =
  [
    Alcotest.test_case "error rendering" `Quick test_error_to_string;
    QCheck_alcotest.to_alcotest prop_tokenizer_locations;
    QCheck_alcotest.to_alcotest prop_tokenizer_card_order;
    Alcotest.test_case "param forward reference" `Quick
      test_param_forward_reference;
    Alcotest.test_case "param cycle" `Quick test_param_cycle;
    Alcotest.test_case "param expressions" `Quick test_param_expressions;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "template basics" `Quick test_template_basics;
    Alcotest.test_case "template requires a range" `Quick
      test_template_requires_range;
    Alcotest.test_case "flatten rejects ranges" `Quick
      test_flatten_rejects_range;
    Alcotest.test_case "empty range" `Quick test_empty_range;
    Alcotest.test_case "fingerprint tracks content" `Quick
      test_template_fingerprint_tracks_content;
    Alcotest.test_case "nested subckt" `Quick test_nested_subckt;
    Alcotest.test_case "nested subckt scoping" `Quick
      test_nested_subckt_is_lexically_scoped;
    Alcotest.test_case "recursion depth limit" `Quick test_subckt_depth_limit;
    Alcotest.test_case "same_netlist" `Quick test_same_netlist;
    QCheck_alcotest.to_alcotest prop_to_spice_roundtrip;
    Alcotest.test_case "vco.sp = builtin" `Quick test_vco_deck_matches_builtin;
    Alcotest.test_case "example decks parse" `Quick test_example_decks_parse;
    Alcotest.test_case "export spice roundtrip" `Quick
      test_export_spice_roundtrip;
    Alcotest.test_case "export determinism" `Quick test_export_determinism;
    Alcotest.test_case "verilog-a shape" `Quick test_export_verilog_a_shape;
    QCheck_alcotest.to_alcotest prop_mutated_decks_typed_errors;
  ]
