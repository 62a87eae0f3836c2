(** The optimiser portfolio: one first-class module signature over the
    [init]/[step] contract, plus a name
    registry so callers (Hierarchy, the CLI's [--optimiser] flag, the
    benches) can pick an algorithm at run time.

    Two members earn their place: {!Nsga2}, the paper's optimiser, and
    {!De}.  On the circuit-level problem, DE behind the surrogate
    pre-screen beat NSGA-II's median hypervolume per wall second by
    more than NSGA-II's IQR over ten seeds; SPEA2 and MOPSO did not and
    are not members.

    Both are real-coded over {!Problem.t} and batch-evaluate through the
    injected {!Problem.evaluator}, so domain-pool and cached evaluation
    apply unchanged: a re-run over a warm eval cache replays every
    finished generation bit-identically without simulating. *)

type options = {
  population : int;
  generations : int;
}
(** The portfolio-level knobs — what {!Hierarchy}'s scales control.
    Algorithm-specific parameters stay at each module's library
    defaults; use the concrete modules ({!Nsga2}, {!De}, ...) directly
    for full control. *)

module type S = sig
  val name : string

  type state

  val init :
    options:options ->
    evaluator:Problem.evaluator ->
    Problem.t ->
    Repro_util.Prng.t ->
    state

  val step : evaluator:Problem.evaluator -> Problem.t -> state -> unit
  val generation : state -> int

  val population : state -> Nsga2.individual array
  (** The reporting population (archive-based algorithms return their
      archive view); feed to {!Nsga2.pareto_front} for the front. *)

end

type t = (module S)

val all : (string * t) list
(** [("nsga2", ...); ("de", ...)]. *)

val names : string list
val of_name : string -> t option
val name : t -> string

val optimise :
  t ->
  options:options ->
  ?evaluator:Problem.evaluator ->
  ?on_generation:(int -> Nsga2.individual array -> unit) ->
  Problem.t ->
  Repro_util.Prng.t ->
  Nsga2.individual array
(** Generic [init] + [generations] × [step] driver over any portfolio
    member, mirroring each algorithm's own [optimise]. *)
