(** Model export: a fitted {!Hieropt.Perf_table.t} rendered as
    (a) a Verilog-A behavioural module wrapping the saved [.tbl] files
    with [$table_model] cubic-spline / no-extrapolation ("3E")
    lookups — the paper's Listings 1–2 — and (b) a SPICE subcircuit of
    the median Pareto sizing whose device dimensions are [.param]-driven,
    so the emitted deck re-parses into exactly the ring-VCO netlist it
    describes.

    Both renderers are pure functions of the table (no timestamps, no
    environment), so the CLI [export] command and the model server's
    [GET /v1/models/default/export] serve byte-identical artefacts. *)

val spice :
  ?stages:int -> ?vdd:float -> ?vctl:float -> Hieropt.Perf_table.t -> string
(** SPICE subcircuit [hieropt_vco vdd vctl s1]: header comments carry
    the full Pareto-with-sigma table, [.param] cards carry the median
    entry's 7 transistor dimensions (full-precision, round-trip-exact),
    and the body is the current-starved ring with [{param}] device
    sizes.  Defaults come from
    {!Repro_spice.Vco_measure.default_options}. *)

val verilog_a : ?vctl_lo:float -> Hieropt.Perf_table.t -> string
(** Verilog-A module [hieropt_vco] referencing the model directory's
    [.tbl] files: Listing 2's performance surfaces ([data.tbl],
    [fmin_data.tbl], [fmax_data.tbl] over (kvco, ivco)), Listing 1's
    ∆-variation lookups ([*_delta.tbl]) with min/max bracketing and
    [p1..p7] bottom-up sizing recovery, plus a behavioural oscillator
    driven by the interpolated band. *)
