(** Modified nodal analysis: netlist compilation, Jacobian/residual
    assembly and the damped Newton iteration shared by the DC and
    transient engines.

    Unknown vector layout: node voltages for nodes [1 .. n-1] (ground
    eliminated) followed by one branch current per voltage source.
    MOS devices contribute a nonlinear current element plus four linear
    parasitic capacitors (Cgs, Cgd, Cdb, Csb) expanded at compile time.

    The MOSFET law ({!Repro_circuit.Mosfet}'s device equations) is
    written once, in this module, where the Newton iteration expands it
    in place; {!mos_eval} is its one-device entry point. *)

val mos_eval :
  Repro_circuit.Mosfet.model ->
  w:float ->
  l:float ->
  vth_shift:float ->
  kp_scale:float ->
  vgs:float ->
  vds:float ->
  Repro_circuit.Mosfet.eval_result
(** Current and small-signal derivatives of one device at the given
    bias, bit for bit what the Newton iteration computes for it.
    [vth_shift] and [kp_scale] carry the sampled process/mismatch
    perturbation (0.0 / 1.0 nominally).  Works in source-referenced
    NMOS polarity and requires [vds >= 0]; negative [vds] is the
    caller's terminal-swap case.  [w] and [l] in metres, both
    positive. *)

type compiled

val compile : Repro_circuit.Netlist.t -> compiled
(** @raise Assert_failure on a MOSFET without a positive width and
    length. *)

val size : compiled -> int
(** Number of MNA unknowns. *)

val node_index : compiled -> Repro_circuit.Netlist.node -> int option
(** Unknown index of a node ([None] for ground). *)

val node_of_name : compiled -> string -> Repro_circuit.Netlist.node
(** @raise Not_found for unknown node names. *)

val branch_index : compiled -> string -> int
(** Unknown index of a voltage source's branch current.
    @raise Not_found for unknown source names. *)

val cap_count : compiled -> int
(** Number of expanded linear capacitors (explicit + MOS parasitics). *)

val cap_voltage : compiled -> int -> Repro_linalg.Vec.t -> float
(** Terminal voltage of capacitor [i] under solution [x]. *)

val companion_fill :
  compiled ->
  use_be:bool ->
  h:float ->
  v_prev:float array ->
  i_prev:float array ->
  geq:float array ->
  ieq:float array ->
  unit
(** Fill the per-capacitor companion conductances/currents for one
    integration step of size [h]: backward Euler ([use_be]) or
    trapezoidal from the previous voltage/current history.  One pass
    over the compiled capacitor table — the transient per-step hot
    path. *)

val cap_history :
  compiled ->
  x:Repro_linalg.Vec.t ->
  geq:float array ->
  ieq:float array ->
  v_prev:float array ->
  i_prev:float array ->
  unit
(** Update [v_prev]/[i_prev] from the accepted solution [x] under the
    companion stamps used for the step — the counterpart of
    {!companion_fill}. *)

type cap_mode =
  | Dc
      (** capacitors open-circuit *)
  | Companion of { geq : float array; ieq : float array }
      (** per-capacitor linear companion: i = geq (va - vb) + ieq *)

val assemble :
  ?injections:(int * float) array ->
  compiled ->
  x:Repro_linalg.Vec.t ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  cap_mode:cap_mode ->
  jacobian:Repro_linalg.Matrix.t ->
  residual:Repro_linalg.Vec.t ->
  unit
(** Fill [jacobian] and [residual] (both are cleared first) with
    F(x) = 0 contributions at candidate solution [x].  [gmin] adds a
    conductance from every node to ground; [source_scale] scales all
    independent sources (source-stepping continuation); [injections]
    adds fixed extra currents (unknown index, amps flowing out of the
    node) — the transient-noise hook. *)

type workspace
(** Reusable sparse-solver state (value stores, numeric factors) for a
    sequence of {!newton} calls — a transient's thousands of steps then
    allocate nothing per step and consult the symbolic registry once.
    Lazily bound to the first circuit it is used with (rebinds if the
    circuit changes).  Single-owner: never share across threads.  Purely
    a performance hint; results are identical with or without it. *)

val make_workspace : unit -> workspace

val domain_workspace : unit -> workspace
(** The calling domain's persistent workspace (domain-local storage).
    Monte-Carlo trials dispatched across a pool rebind it from sample to
    sample, so sparse numeric factors survive across structurally
    identical netlists.  Carried factors are used only when they match
    what the symbolic registry would provide, so results stay
    bit-identical to a fresh workspace. *)

val mos_stamp_paths :
  compiled ->
  x:Repro_linalg.Vec.t ->
  gmin:float ->
  cap_mode:cap_mode ->
  float array * float array
(** For tests and diagnostics.  The sparse Jacobian values at [x], built
    the two ways the solver can add its MOSFET stamps over the same
    cached static stamps: [(direct, reference)], where [direct] comes
    from the stamping {!newton} runs once the call's static stamps are
    current (the direct loop over each device's precomputed slots) and
    [reference] from the generic Jacobian pass that pattern discovery
    and {!assemble} use.  The two are equal bit for bit while the hot
    path keeps the generic pass's order. *)

val replayed_residual :
  compiled ->
  x:Repro_linalg.Vec.t ->
  first:float * float * cap_mode ->
  second:float * float * cap_mode ->
  float array * float array
(** For tests and diagnostics.  [(replayed, fresh)]: the residual at
    [x] under the [second] (gmin, source scale, capacitor mode), once
    from a device scratch that already holds [x]'s linearisation,
    evaluated under [first] (the replay a transient step's first Newton
    iteration takes), and once from a fresh scratch.  The two are equal
    bit for bit. *)

type newton_report = {
  converged : bool;
  iterations : int;
  max_dx : float;     (** final Newton update infinity-norm *)
  max_residual : float;
}

val channel_noise_stamps :
  compiled -> x:Repro_linalg.Vec.t -> (int * int * float) array
(** Per-MOSFET thermal channel noise at operating point [x]:
    [(hi, lo, s)] where a noise current of spectral density
    s = sqrt(4kT·γ·gm) A/√Hz flows between the channel terminals
    (unknown indices, -1 = ground).  Drives the transient-noise
    feature. *)

val newton :
  ?max_iter:int ->
  ?vtol:float ->
  ?rtol:float ->
  ?itol:float ->
  ?dv_limit:float ->
  ?injections:(int * float) array ->
  ?workspace:workspace ->
  compiled ->
  x:Repro_linalg.Vec.t ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  cap_mode:cap_mode ->
  newton_report
(** Damped Newton–Raphson updating [x] in place.  Per-iteration node
    updates are limited to [dv_limit] volts (default 0.5) by step
    scaling.  Convergence requires both the update norm below
    [vtol + rtol * |x|] and the KCL residual below [itol].

    The MOSFETs' linearisation depends on the node voltages alone, so
    the workspace keeps the last one it computed with the voltages it
    was computed at: a residual at the same voltages, bit for bit,
    replays it instead of evaluating the devices again.  Each transient
    step's first iteration starts where the previous step's
    convergence check left off, so it takes that replay.

    Each update solves the Jacobian with the sparse left-looking LU:
    its symbolic analysis is computed once per circuit topology and
    shared through a registry, so Newton iterations, timesteps and
    Monte-Carlo samples only pay a numeric refactorisation, and a
    stale frozen pivot falls back to a full factorisation.  The
    refactorisations of one call are published when it returns, as one
    [solver.refactorise] increment and one histogram observation of
    their summed time.  A singular Jacobian ends the iteration
    unconverged. *)
