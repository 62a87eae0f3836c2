(** System-level hierarchical optimisation (§4.5): NSGA-II over the PLL
    designables (Kvco, Ivco, C1, C2, R1) evaluating the behavioural PLL
    through the combined performance-and-variation model.

    For each candidate the variation model interpolates the min/max VCO
    gain and current (nominal ∓ ∆·nominal, the paper's Listing 2), the
    performance model interpolates nominal/min/max VCO jitter at those
    operating points, and the behavioural PLL is evaluated for all three
    variants — producing the nominal/min/max performance triples of
    Table 2.

    Objectives (minimised): nominal lock time, jitter sum, current.
    Constraints: the VCO band must cover the spec range, and — when
    [use_variation] is on (the paper's contribution; off reproduces the
    nominal-only baseline [10]) — the {e worst-case} variant must meet
    the lock-time and current limits. *)

type table2_row = {
  kv : float;       (** Hz/V *)
  kv_min : float;
  kv_max : float;
  iv : float;       (** A *)
  iv_min : float;
  iv_max : float;
  c1 : float;
  c2 : float;
  r1 : float;
  lock : float;     (** s, nominal *)
  lock_min : float; (** best across variants *)
  lock_max : float; (** worst across variants *)
  jit : float;      (** s, nominal *)
  jit_min : float;
  jit_max : float;
  curr : float;     (** A, nominal *)
  curr_min : float;
  curr_max : float;
}

val pp_row : Format.formatter -> table2_row -> unit

type model_query = (float * float) array -> Perf_table.point_eval array
(** A batched table-model oracle: (kvco, ivco) pairs in, one
    {!Perf_table.point_eval} per pair, order preserved.  The local
    oracle is [Perf_table.eval_points model]; [Repro_serve.Remote]
    provides one backed by a running model server.  Evaluations may run
    on pool worker domains, so implementations must be safe to call
    concurrently. *)

type config = {
  spec : Spec.t;
  model : Perf_table.t;
  icp : float;                  (** charge-pump current, A *)
  overhead_current : float;     (** non-VCO PLL current, A *)
  use_variation : bool;
  c1_bounds : float * float;
  c2_bounds : float * float;
  r1_bounds : float * float;
  query : model_query option;
      (** when set, every table-model interpolation during evaluation
          goes through this oracle instead of [model] — the remote-model
          path.  [model] is still used for the design-space bounds and
          as the fallback the remote adapter degrades to.  A faithful
          oracle (the served model of the same table files) yields
          bit-identical optimisation results. *)
}

val default_config : model:Perf_table.t -> config
(** Paper-like component ranges (C1 1–12 pF, C2 0.1–1.2 pF, R1 1–20 kΩ —
    R1 scaled up vs the paper's 1–3.8 kΩ because our substitute VCO has
    ~5x less gain, see DESIGN.md), Icp 200 µA, 8 mA overhead,
    variation-aware constraints on, [query = None] (direct in-process
    interpolation). *)

val objective_names : string array

val variant_config :
  config ->
  kvco:float ->
  ivco:float ->
  c1:float ->
  c2:float ->
  r1:float ->
  Repro_behave.Pll.config * float * float * float
(** Assemble the behavioural PLL for one (kvco, ivco) operating point;
    also returns the interpolated (jvco, fmin, fmax).  Exposed for the
    yield engine and bottom-up verification. *)

val variant_configs :
  config ->
  (float * float) array ->
  c1:float ->
  c2:float ->
  r1:float ->
  (Repro_behave.Pll.config * float * float * float) array
(** {!variant_config} for each (kvco, ivco) point, from one model query
    for all of them.  The table answers every point on its own, so each
    result equals {!variant_config}'s bit for bit. *)

val evaluate_point :
  config ->
  kvco:float ->
  ivco:float ->
  c1:float ->
  c2:float ->
  r1:float ->
  (table2_row, string) result
(** One full nominal/min/max evaluation (also used to rebuild Table 2
    rows outside the GA): {!evaluate_points} of the one decision vector
    [[| kvco; ivco; c1; c2; r1 |]]. *)

val evaluate_points :
  ?pool:Repro_engine.Pool.t ->
  config ->
  float array array ->
  (table2_row, string) result array
(** The full evaluation of each decision vector [[| kvco; ivco; c1; c2;
    r1 |]], in input order, bit for bit as one by one.  Each candidate
    makes its two model queries, the nominal point and then its two
    variants, in input order on the calling domain.  Then the
    behavioural PLLs run in three lockstep phases ({!Repro_behave.Pll.evaluate_batch}),
    each split into one contiguous chunk per worker of [pool] (default:
    the shared pool): every nominal variant, then the low variants of
    the candidates whose nominal evaluated, then the high variants of
    those whose low variant evaluated.  A candidate's [Error] is its
    first failing variant's, and a failing variant stops its
    candidate's simulations as it would alone.  The system level
    rebuilds the front's Table 2 rows through this batch. *)

val problem : config -> Repro_moo.Problem.t
(** 5-variable, 3-objective NSGA-II problem.  Its batch evaluation
    ({!Repro_moo.Problem.create_batched}) is {!evaluate_points}'s,
    observing the query stage and each lockstep chunk into the
    evaluator's busy histogram. *)

val select_design : config -> table2_row array -> table2_row option
(** The paper's "shaded row": the smallest-jitter row that clears the
    spec with margin (60% of the lock budget, 95% of the current budget;
    falls back to bare feasibility).  With [use_variation] the screening
    uses worst-case values, otherwise nominal ones — the difference the
    ablation bench measures. *)
