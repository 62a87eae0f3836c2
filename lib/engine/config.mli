(** Runtime configuration shared by every entry point (CLI, bench,
    examples, tests).

    Centralises the environment-variable conventions that used to be
    re-implemented ad hoc per executable:

    - [HIEROPT_FULL] — any non-empty value other than ["0"] selects the
      paper-scale workload instead of the fast bench scale.
    - [HIEROPT_JOBS] — worker-domain count for the parallel evaluation
      engine; defaults to {!Domain.recommended_domain_count}. *)

val flag : string -> bool
(** [flag name] is [true] when the environment variable [name] is set to
    a non-empty value other than ["0"]. *)

val int_var : string -> int option
(** Integer environment variable, [None] when unset/empty/unparseable. *)

val full : unit -> bool
(** The [HIEROPT_FULL] switch: paper-scale workloads when set. *)

type solver_mode = Sparse
(** The one MNA linear solver.  Kept only because [perfbench/main.ml]
    passes [~solver:Sparse] to [Repro_spice.Transient.run_result];
    remove it together with that argument. *)

val jobs : unit -> int
(** Worker count for {!Pool.create}: the value given to {!set_jobs} if
    any, else [HIEROPT_JOBS] if set to a positive integer, else
    [Domain.recommended_domain_count ()].  Always >= 1. *)

val set_jobs : int -> unit
(** Programmatic override (the CLI's [-j]).  Values <= 0 clear the
    override. *)
