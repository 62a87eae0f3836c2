(** Run-lifecycle interruption: a process-wide interrupt flag and the
    clean-boundary exception that carries it out of a run.

    Resume needs no state of its own.  Every finished unit of work (a GA
    evaluation, a variation-model entry) is memoised in the eval cache
    ({!Cache}), which the flow writes atomically at every GA generation
    and every Monte-Carlo design.  Because every stochastic loop draws
    from pre-split, index-stable PRNG streams, running the same command
    again replays the finished work from the cache and reproduces the
    uninterrupted run bit-for-bit.  The long loops call {!guard} at
    those boundaries, after the cache is on disk, so a requested
    interrupt (SIGINT or {!request_interrupt}) stops the run there. *)

exception Interrupted
(** Raised by {!guard} at a loop boundary once an interrupt was
    requested. *)

val request_interrupt : unit -> unit
(** Set the process-wide interrupt flag (signal-safe); the next {!guard}
    raises.  Also the deterministic test/CI hook. *)

val interrupted : unit -> bool
val clear_interrupt : unit -> unit

val install_signal_handler : unit -> unit
(** Route SIGINT to {!request_interrupt}.  A second SIGINT restores the
    default behaviour, so a stuck run can still be killed. *)

val guard : unit -> unit
(** @raise Interrupted when an interrupt was requested. *)
