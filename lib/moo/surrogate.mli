(** Surrogate pre-screening for expensive evaluations: fit cheap
    scattered-data models ({!Repro_interp.Table_nd}, RBF by default) to
    the archive of already-evaluated points each generation, and skip
    the exact evaluation of candidates whose {e optimistic} predicted
    evaluation is still dominated by the archive's current front
    (GLOVA-style screening, arXiv:2505.11208).

    Screened-out candidates receive an infinitely-infeasible marker
    evaluation, so Deb constraint-domination discards them in selection
    and they can never reach a Pareto front.  The guard band shifts
    every prediction by [guard] × the archive spread towards "better"
    before the dominance test, bounding false rejects by the model's
    declared headroom: a candidate whose guarded prediction is
    non-dominated is {e always} evaluated exactly.

    Screening is a pure function of the archive, so runs stay
    deterministic, and a re-run over a warm eval cache rebuilds the
    same archive and makes the same screening decisions.

    Reports [eval.avoided] / [eval.paid] telemetry counters. *)

type options = {
  guard : float;      (** guard-band fraction of archive spread, >= 0 *)
  min_points : int;   (** archive size before screening starts, >= 2 *)
  max_points : int;   (** FIFO cap on the fit archive *)
  scheme : Repro_interp.Table_nd.scheme;  (** surrogate family *)
}

val default_options : options
(** guard 0.1, min_points 16, max_points 256, thin-plate RBF. *)

type t

val create : ?options:options -> unit -> t
(** Fresh screen with an empty archive.
    @raise Invalid_argument on out-of-range options. *)

val options : t -> options
val size : t -> int

val archive : t -> (float array * Problem.evaluation) array
(** The current fit window (newest last), for tests and diagnostics. *)

val observe : t -> float array array -> Problem.evaluation array -> unit
(** Append exactly-evaluated points (normally done by {!wrap}). *)

val rejected_evaluation : Problem.t -> Problem.evaluation
(** The marker returned for screened-out candidates: all-[infinity]
    objectives and infinite constraint violation. *)

val is_rejected : Problem.evaluation -> bool

val guarded_predictions :
  t -> Problem.t -> float array array -> Problem.evaluation array option
(** Optimistic surrogate predictions for each candidate ([None] while
    the archive has fewer than [min_points] points).  Objectives with
    too few finite samples predict [neg_infinity] (fail open). *)

val screen : t -> Problem.t -> float array array -> bool array option
(** Per-candidate verdicts ([true] = evaluate exactly): a candidate is
    screened out iff some member of the archive's non-dominated front
    constraint-dominates its guarded prediction. *)

val wrap : t -> Problem.evaluator -> Problem.evaluator
(** The pre-screen stage: screen the batch, forward only survivors to
    the wrapped evaluator, append their results to the archive, and
    fill rejected slots with {!rejected_evaluation}.  While the archive
    is below [min_points] every candidate is forwarded. *)
