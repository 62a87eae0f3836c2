(** DC operating-point analysis with gmin-stepping and source-stepping
    continuation fallbacks. *)

type result = {
  solution : Repro_linalg.Vec.t;  (** MNA unknown vector *)
  iterations : int;               (** total Newton iterations spent *)
  strategy : string;              (** "direct" | "gmin" | "source" *)
}

exception No_convergence of string

val solve_result :
  ?x0:Repro_linalg.Vec.t ->
  ?workspace:Mna.workspace ->
  Mna.compiled ->
  (result, Solver_error.t) Stdlib.result
(** Find the DC operating point.  [x0] seeds the Newton iteration (e.g.
    a previous solution during a sweep).  Non-convergence of every
    continuation strategy is an [Error] carrying the structured
    {!Solver_error.t} — this is the primary entry point; {!solve} is a
    thin raising wrapper kept for compatibility.  [workspace] defaults
    to {!Mna.domain_workspace} (a pure performance hint; results are
    identical either way).
    @raise Invalid_argument on an [x0] size mismatch (a programming
    error, not a solver failure). *)

val solve :
  ?x0:Repro_linalg.Vec.t ->
  ?workspace:Mna.workspace ->
  Mna.compiled ->
  result
(** Raising wrapper over {!solve_result}.
    @raise No_convergence when all continuation strategies fail. *)

val node_voltage : Mna.compiled -> result -> string -> float
(** Voltage of a named node in a solved operating point.
    @raise Not_found for unknown names. *)

val source_current : Mna.compiled -> result -> string -> float
(** Branch current of a named voltage source (positive when flowing from
    the + terminal through the source to the - terminal).
    @raise Not_found for unknown names. *)
