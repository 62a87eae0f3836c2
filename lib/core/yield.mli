(** Yield prediction (§4.5 end): Monte-Carlo analysis of the selected
    system design against the specification.

    {!behavioural} runs the paper's 500-sample MC at the behavioural
    level — Kvco and Ivco are drawn from the variation model's spreads,
    the PLL is re-evaluated, and the sample passes when it locks within
    the spec's time and current budgets (this is the "yield of 100%"
    check).  The transistor-level cross-check of the selected design is
    {!Hierarchy.verify_design}'s re-simulation. *)

type outcome = {
  pass : bool;
  lock_time : float option;  (** [None] when the loop failed *)
  current : float;
  detail : string;           (** failure reason for diagnostics *)
}

val check_sample :
  Pll_problem.config ->
  kvco:float ->
  ivco:float ->
  c1:float ->
  c2:float ->
  r1:float ->
  outcome
(** Evaluate one (possibly perturbed) operating point against the spec. *)

val behavioural :
  ?n:int ->
  ?pool:Repro_engine.Pool.t ->
  prng:Repro_util.Prng.t ->
  Pll_problem.config ->
  Pll_problem.table2_row ->
  Repro_util.Stats.yield_estimate
(** [n] defaults to 500 (the paper's count).  Samples are evaluated in
    parallel over [pool] (default: the shared engine pool); all
    perturbations are drawn before dispatch, and the table model is
    queried once for all of them, so the estimate is bit-identical for
    any worker count. *)
