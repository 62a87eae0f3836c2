module PT = Hieropt.Perf_table
module VM = Hieropt.Variation_model
module VP = Hieropt.Vco_problem
module T = Repro_circuit.Topologies
module V = Repro_spice.Vco_measure

(* floats print with the shortest round-tripping digits: the .param cards
   must re-parse to the very floats the table holds *)
let num = Repro_util.Json.shortest

let median_entry table =
  let entries = PT.entries table in
  entries.((Array.length entries - 1) / 2)

let header_rows buf ~lead table =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (lead ^ s ^ "\n")) fmt in
  line "Pareto front with variation spreads (sigma/mu), %d entries:"
    (PT.size table);
  line "kvco ivco jvco fmin fmax d_kvco d_jvco d_ivco d_fmin d_fmax";
  Array.iter
    (fun (e : VM.entry) ->
      let p = e.VM.design.VP.perf in
      line "%s %s %s %s %s %s %s %s %s %s" (num p.V.kvco) (num p.V.ivco)
        (num p.V.jvco) (num p.V.fmin) (num p.V.fmax) (num e.VM.d_kvco)
        (num e.VM.d_jvco) (num e.VM.d_ivco) (num e.VM.d_fmin)
        (num e.VM.d_fmax))
    (PT.entries table)

let spice ?stages ?vdd ?vctl table =
  let d = V.default_options in
  let stages = Option.value stages ~default:d.V.stages in
  let vdd = Option.value vdd ~default:d.V.vdd in
  let vctl = Option.value vctl ~default:d.V.vctl_lo in
  let entry = median_entry table in
  let p = entry.VM.design.VP.params in
  let buf = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "* hieropt VCO model export: median Pareto sizing as a subcircuit";
  line "* (re-parses into the current-starved ring of DESIGN.md / Figure 6)";
  header_rows buf ~lead:"* " table;
  line "* selected entry: %d of %d (median along the front)"
    (((PT.size table - 1) / 2) + 1)
    (PT.size table);
  List.iter
    (fun (n, v) -> line ".param %s = %s" n (num v))
    [ ("wn", p.T.wn); ("ln", p.T.ln); ("wp", p.T.wp); ("lp", p.T.lp);
      ("wcn", p.T.wcn); ("wcp", p.T.wcp); ("lc", p.T.lc) ];
  line ".subckt hieropt_vco vdd vctl s1";
  line "Vdd vdd 0 DC %s" (num vdd);
  line "Vctl vctl 0 DC %s" (num vctl);
  line "mbn vbp vctl 0 nmos_012 W={wcn} L={lc}";
  line "mbp vbp vbp vdd pmos_012 W={wcp} L={lc}";
  for i = 1 to stages do
    let input = if i = 1 then Printf.sprintf "s%d" stages
      else Printf.sprintf "s%d" (i - 1)
    in
    line "mcp%d sp%d vbp vdd pmos_012 W={wcp} L={lc}" i i;
    line "mp%d s%d %s sp%d pmos_012 W={wp} L={lp}" i i input i;
    line "mn%d s%d %s sn%d nmos_012 W={wn} L={ln}" i i input i;
    line "mcn%d sn%d vctl 0 nmos_012 W={wcn} L={lc}" i i
  done;
  line ".ends hieropt_vco";
  line ".end";
  Buffer.contents buf

let verilog_a ?(vctl_lo = V.default_options.V.vctl_lo) table =
  let entry = median_entry table in
  let mid = entry.VM.design.VP.perf in
  let kvco_lo, kvco_hi = PT.kvco_range table in
  let ivco_lo, ivco_hi = PT.ivco_range table in
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "// hieropt VCO combined performance + variation model";
  line "// (paper Listings 1-2; \"3E\" = cubic spline, no extrapolation)";
  line "// table files are the model directory written by Perf_table.save";
  header_rows buf ~lead:"// " table;
  line "";
  line "`include \"constants.vams\"";
  line "`include \"disciplines.vams\"";
  line "";
  line "module hieropt_vco(vctl, out);";
  line "  inout vctl, out;";
  line "  electrical vctl, out;";
  line "  // operating point on the Pareto surface (design variables of";
  line "  // the system-level optimisation)";
  line "  parameter real kvco = %s from [%s:%s];" (num mid.V.kvco)
    (num kvco_lo) (num kvco_hi);
  line "  parameter real ivco = %s from [%s:%s];" (num mid.V.ivco)
    (num ivco_lo) (num ivco_hi);
  line "";
  line "  real jvco, fmin, fmax, freq;";
  line "  real kvco_var, ivco_var, jvco_var, fmin_var, fmax_var;";
  line "  real kvco_min, kvco_max, ivco_min, ivco_max, jvco_min, jvco_max;";
  line "  real p1, p2, p3, p4, p5, p6, p7;";
  line "";
  line "  analog begin";
  line "    @(initial_step) begin";
  line "      // Listing 2: nominal performance surfaces over (kvco, ivco)";
  line "      jvco = $table_model(kvco, ivco, \"data.tbl\", \"3E,3E\");";
  line "      fmin = $table_model(kvco, ivco, \"fmin_data.tbl\", \"3E,3E\");";
  line "      fmax = $table_model(kvco, ivco, \"fmax_data.tbl\", \"3E,3E\");";
  line "      // Listing 1: relative spreads and min/max bracketing";
  line "      kvco_var = $table_model(kvco, \"kvco_delta.tbl\", \"3E\");";
  line "      ivco_var = $table_model(ivco, \"ivco_delta.tbl\", \"3E\");";
  line "      jvco_var = $table_model(jvco, \"jvco_delta.tbl\", \"3E\");";
  line "      fmin_var = $table_model(fmin, \"fmin_delta.tbl\", \"3E\");";
  line "      fmax_var = $table_model(fmax, \"fmax_delta.tbl\", \"3E\");";
  line "      kvco_min = kvco - kvco_var * kvco;";
  line "      kvco_max = kvco + kvco_var * kvco;";
  line "      ivco_min = ivco - ivco_var * ivco;";
  line "      ivco_max = ivco + ivco_var * ivco;";
  line "      jvco_min = jvco - jvco_var * jvco;";
  line "      jvco_max = jvco + jvco_var * jvco;";
  line "      // Listing 1: bottom-up recovery of the transistor sizing";
  line
    "      p1 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p1_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line
    "      p2 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p2_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line
    "      p3 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p3_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line
    "      p4 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p4_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line
    "      p5 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p5_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line
    "      p6 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p6_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line
    "      p7 = $table_model(kvco, ivco, jvco, fmin, fmax, \"p7_data.tbl\", \
     \"3E,3E,3E,3E,3E\");";
  line "    end";
  line "    // behavioural oscillator: frequency follows V(vctl) at the";
  line "    // interpolated gain, clamped to the interpolated band";
  line "    freq = fmin + kvco * (V(vctl) - %s);" (num vctl_lo);
  line "    if (freq < fmin) freq = fmin;";
  line "    if (freq > fmax) freq = fmax;";
  line "    V(out) <+ sin(2.0 * `M_PI * idt(freq));";
  line "  end";
  line "endmodule";
  Buffer.contents buf
