module Netlist = Repro_circuit.Netlist
module Mosfet = Repro_circuit.Mosfet
module Source = Repro_circuit.Source
module Vec = Repro_linalg.Vec
module Matrix = Repro_linalg.Matrix
module Sparse = Repro_linalg.Sparse
module Sparse_lu = Repro_linalg.Sparse_lu
module Telemetry = Repro_engine.Telemetry
module Histogram = Repro_obs.Histogram

type res = { ra : int; rb : int; g : float }
type cap = { ca : int; cb : int; cval : float }
type vsrc = { vpos : int; vneg : int; vwave : Source.t; branch : int }
type isrc = { ipos : int; ineg : int; iwave : Source.t }

type mos = {
  md : int;
  mg : int;
  ms : int;
  model : Mosfet.model;
  w : float;
  l : float;
  vth_shift : float;
  kp_scale : float;
}

(* sparse stamping context: the structural pattern of the Jacobian
   (shared with the symbolic registry via its fingerprint) plus a dense
   (i,j) -> value-slot map for O(1) stamps.  Immutable once built. *)
type sp_ctx = { pattern : Sparse.t; slot : int array }

type compiled = {
  net : Netlist.t;
  n_nodes : int;
  n_branches : int;
  size : int;
  resistors : res array;
  caps : cap array;
  vsources : vsrc array;
  isources : isrc array;
  mosfets : mos array;
  branch_of_name : (string, int) Hashtbl.t;
  mutable sp : sp_ctx option;
      (* lazily discovered; a racing rebuild is benign — every build
         yields an equivalent immutable context *)
}

(* unknown index of a node id; ground (0) maps to -1 meaning "eliminated" *)
let ui node = node - 1

let compile net =
  let resistors = ref [] and caps = ref [] in
  let vsources = ref [] and isources = ref [] and mosfets = ref [] in
  let branch_of_name = Hashtbl.create 4 in
  let n_branches = ref 0 in
  List.iter
    (fun el ->
      match el with
      | Netlist.Resistor { n1; n2; value; name } ->
        if value <= 0.0 then
          invalid_arg (Printf.sprintf "Mna.compile: non-positive resistor %s" name);
        resistors := { ra = ui n1; rb = ui n2; g = 1.0 /. value } :: !resistors
      | Netlist.Capacitor { n1; n2; value; _ } ->
        caps := { ca = ui n1; cb = ui n2; cval = value } :: !caps
      | Netlist.Vsource { npos; nneg; source; name } ->
        let branch = !n_branches in
        incr n_branches;
        Hashtbl.replace branch_of_name name branch;
        vsources := { vpos = ui npos; vneg = ui nneg; vwave = source; branch } :: !vsources
      | Netlist.Isource { npos; nneg; source; _ } ->
        isources := { ipos = ui npos; ineg = ui nneg; iwave = source } :: !isources
      | Netlist.Mos { drain; gate; source; model; w; l; vth_shift; kp_scale; _ } ->
        mosfets :=
          { md = ui drain; mg = ui gate; ms = ui source; model; w; l; vth_shift; kp_scale }
          :: !mosfets;
        (* expand bias-independent parasitics; bulks sit at AC ground *)
        let c = Mosfet.capacitances model ~w ~l in
        caps :=
          { ca = ui gate; cb = ui source; cval = c.Mosfet.cgs }
          :: { ca = ui gate; cb = ui drain; cval = c.Mosfet.cgd }
          :: { ca = ui drain; cb = -1; cval = c.Mosfet.cdb }
          :: { ca = ui source; cb = -1; cval = c.Mosfet.csb }
          :: !caps)
    (Netlist.elements net);
  let n_nodes = Netlist.node_count net in
  {
    net;
    n_nodes;
    n_branches = !n_branches;
    size = n_nodes - 1 + !n_branches;
    resistors = Array.of_list (List.rev !resistors);
    caps = Array.of_list (List.rev !caps);
    vsources = Array.of_list (List.rev !vsources);
    isources = Array.of_list (List.rev !isources);
    mosfets = Array.of_list (List.rev !mosfets);
    branch_of_name;
    sp = None;
  }

let size c = c.size

let node_index c node =
  if node <= 0 then None
  else if node >= c.n_nodes then invalid_arg "Mna.node_index: bad node"
  else Some (node - 1)

let node_of_name c name =
  match Netlist.find_node c.net name with
  | Some n -> n
  | None -> raise Not_found

let branch_index c name =
  match Hashtbl.find_opt c.branch_of_name name with
  | Some b -> c.n_nodes - 1 + b
  | None -> raise Not_found

let cap_count c = Array.length c.caps

let volt x i = if i < 0 then 0.0 else x.(i)

let cap_voltage c i x =
  let cap = c.caps.(i) in
  volt x cap.ca -. volt x cap.cb

let cap_value c i = c.caps.(i).cval

let capacitance_stamps c =
  Array.map (fun { ca; cb; cval } -> (ca, cb, cval)) c.caps

(* Transient-integration helpers: one checked pass over the compiled
   capacitor table instead of per-capacitor [cap_value]/[cap_voltage]
   calls in the per-step hot path. *)

let check_cap_arrays c name ~v_prev ~i_prev ~geq ~ieq =
  let ncaps = Array.length c.caps in
  if
    Array.length v_prev < ncaps
    || Array.length i_prev < ncaps
    || Array.length geq < ncaps
    || Array.length ieq < ncaps
  then invalid_arg (name ^ ": arrays shorter than capacitor count")

let companion_fill c ~use_be ~h ~v_prev ~i_prev ~geq ~ieq =
  check_cap_arrays c "Mna.companion_fill" ~v_prev ~i_prev ~geq ~ieq;
  for k = 0 to Array.length c.caps - 1 do
    let cv = (Array.unsafe_get c.caps k).cval in
    if use_be then begin
      let g = cv /. h in
      Array.unsafe_set geq k g;
      Array.unsafe_set ieq k (-.g *. Array.unsafe_get v_prev k)
    end
    else begin
      let g = 2.0 *. cv /. h in
      Array.unsafe_set geq k g;
      Array.unsafe_set ieq k
        ((-.g *. Array.unsafe_get v_prev k) -. Array.unsafe_get i_prev k)
    end
  done

let cap_history c ~x ~geq ~ieq ~v_prev ~i_prev =
  check_cap_arrays c "Mna.cap_history" ~v_prev ~i_prev ~geq ~ieq;
  if Array.length x < c.size then
    invalid_arg "Mna.cap_history: solution vector shorter than system size";
  for k = 0 to Array.length c.caps - 1 do
    let { ca; cb; _ } = Array.unsafe_get c.caps k in
    let va = if ca < 0 then 0.0 else Array.unsafe_get x ca in
    let vb = if cb < 0 then 0.0 else Array.unsafe_get x cb in
    let v_new = va -. vb in
    Array.unsafe_set v_prev k v_new;
    Array.unsafe_set i_prev k
      ((Array.unsafe_get geq k *. v_new) +. Array.unsafe_get ieq k)
  done

type cap_mode =
  | Dc
  | Companion of { geq : float array; ieq : float array }

(* accumulate into row [i] only when it is a real unknown *)
let addf residual i v = if i >= 0 then residual.(i) <- residual.(i) +. v

(* The unchecked read and accumulation of the assembly hot path, with
   the same ground tests as {!volt} and {!addf}.  Top-level and
   [@inline], so ocamlopt expands them in place without flambda: a
   local closure would box every float that passes through it. *)
let[@inline] volt_u x i = if i < 0 then 0.0 else Array.unsafe_get x i

let[@inline] add_u residual i dv =
  if i >= 0 then
    Array.unsafe_set residual i (Array.unsafe_get residual i +. dv)

(* guard for the unchecked accesses in {!eval_residual}: every public
   path into the assembly passes through here first *)
let check_stores c ~x ~residual ~cap_mode =
  if Array.length x < c.size || Array.length residual < c.size then
    invalid_arg "Mna: solution/residual vector shorter than system size";
  match cap_mode with
  | Dc -> ()
  | Companion { geq; ieq } ->
    if
      Array.length geq < Array.length c.caps
      || Array.length ieq < Array.length c.caps
    then invalid_arg "Mna: companion arrays shorter than capacitor count"

(* Per-MOSFET linearisation captured by the residual pass and replayed
   by the Jacobian pass, so each device is evaluated once per Newton
   iteration even though residual and Jacobian are built in separate
   passes.  Parallel arrays keep the floats unboxed. *)
type mos_scratch = {
  ms_hi : int array;      (* high channel terminal after orientation *)
  ms_lo : int array;
  ms_dhi : float array;   (* d ids / d v_hi *)
  ms_dlo : float array;
  ms_dg : float array;    (* d ids / d v_gate *)
  ms_iv : float array;    (* [| ids; gm; gds |] of the device in hand *)
}

let make_mos_scratch c =
  let nm = Array.length c.mosfets in
  {
    ms_hi = Array.make nm 0;
    ms_lo = Array.make nm 0;
    ms_dhi = Array.make nm 0.0;
    ms_dlo = Array.make nm 0.0;
    ms_dg = Array.make nm 0.0;
    ms_iv = Array.make 3 0.0;
  }

(* Residual at candidate [x], plus the per-MOSFET linearisation into
   [mos] for {!stamp_jacobian} to replay.  Kept separate from the
   stamping pass so the Newton convergence check (which only needs the
   residual) pays no Jacobian work.

   This is the hottest loop of every SPICE-driven flow (twice per
   Newton iteration count across millions of transient steps), so it
   uses unchecked array accesses: the element indices were validated
   against the node/branch counts at compile time, and the public entry
   points check that [x], [residual] and any companion arrays are long
   enough before reaching here. *)
let eval_residual ?(injections = [||]) c ~x ~time ~gmin ~source_scale ~cap_mode
    ~mos ~residual =
  Vec.fill residual 0.0;
  let nb_base = c.n_nodes - 1 in
  (* resistors *)
  let rs = c.resistors in
  for k = 0 to Array.length rs - 1 do
    let { ra; rb; g } = Array.unsafe_get rs k in
    let i = g *. (volt_u x ra -. volt_u x rb) in
    add_u residual ra i;
    add_u residual rb (-.i)
  done;
  (* capacitors *)
  (match cap_mode with
  | Dc -> ()
  | Companion { geq; ieq } ->
    let caps = c.caps in
    for k = 0 to Array.length caps - 1 do
      let { ca; cb; _ } = Array.unsafe_get caps k in
      let i =
        (Array.unsafe_get geq k *. (volt_u x ca -. volt_u x cb))
        +. Array.unsafe_get ieq k
      in
      add_u residual ca i;
      add_u residual cb (-.i)
    done);
  (* voltage sources: branch current row + KVL row *)
  let vsources = c.vsources in
  for k = 0 to Array.length vsources - 1 do
    let { vpos; vneg; vwave; branch } = vsources.(k) in
    let bi = nb_base + branch in
    let ib = x.(bi) in
    add_u residual vpos ib;
    add_u residual vneg (-.ib);
    let e = source_scale *. Source.value vwave time in
    residual.(bi) <- volt_u x vpos -. volt_u x vneg -. e
  done;
  (* current sources *)
  let isources = c.isources in
  for k = 0 to Array.length isources - 1 do
    let { ipos; ineg; iwave } = isources.(k) in
    let i = source_scale *. Source.value iwave time in
    add_u residual ipos i;
    add_u residual ineg (-.i)
  done;
  (* MOSFETs *)
  let mosfets = c.mosfets in
  let iv = mos.ms_iv in
  for k = 0 to Array.length mosfets - 1 do
    let m = Array.unsafe_get mosfets k in
    let vd = volt_u x m.md and vg = volt_u x m.mg and vs = volt_u x m.ms in
    (* orient so the internal "drain" is the high node of the channel *)
    let polarity = m.model.Mosfet.polarity in
    let drain_high =
      match polarity with
      | Mosfet.Nmos -> vd >= vs
      | Mosfet.Pmos -> not (vs >= vd)
    in
    let hi = if drain_high then m.md else m.ms
    and lo = if drain_high then m.ms else m.md
    and vhi = if drain_high then vd else vs
    and vlo = if drain_high then vs else vd in
    let vds = vhi -. vlo in
    let vgs =
      match polarity with
      | Mosfet.Nmos -> vg -. vlo
      | Mosfet.Pmos -> vhi -. vg
    in
    Mosfet.eval_into m.model ~w:m.w ~l:m.l ~vth_shift:m.vth_shift
      ~kp_scale:m.kp_scale ~vgs ~vds iv;
    let ids = iv.(0) and gm = iv.(1) and gds = iv.(2) in
    (* current flows hi -> lo through the channel *)
    add_u residual hi ids;
    add_u residual lo (-.ids);
    Array.unsafe_set mos.ms_hi k hi;
    Array.unsafe_set mos.ms_lo k lo;
    (* d ids / d node voltages, per polarity-specific vgs definition *)
    match polarity with
    | Mosfet.Nmos ->
      (* vgs = vg - vlo, vds = vhi - vlo *)
      Array.unsafe_set mos.ms_dhi k gds;
      Array.unsafe_set mos.ms_dlo k (-.gm -. gds);
      Array.unsafe_set mos.ms_dg k gm
    | Mosfet.Pmos ->
      (* vgs = vhi - vg, vds = vhi - vlo *)
      Array.unsafe_set mos.ms_dhi k (gm +. gds);
      Array.unsafe_set mos.ms_dlo k (-.gds);
      Array.unsafe_set mos.ms_dg k (-.gm)
  done;
  (* fixed extra currents (transient noise injection); indices are
     caller-supplied, so keep the checked accessor *)
  for k = 0 to Array.length injections - 1 do
    let i, amps = injections.(k) in
    addf residual i amps
  done;
  (* gmin from every node to ground *)
  if gmin > 0.0 then
    for i = 0 to nb_base - 1 do
      Array.unsafe_set residual i
        (Array.unsafe_get residual i +. (gmin *. Array.unsafe_get x i))
    done

(* Jacobian stamps for the linearisation captured by {!eval_residual}.
   The stamp sinks receive every (row, col, value) contribution,
   including negative (ground) indices they must skip.  [addj_static]
   gets the contributions that do not depend on [x] (resistors,
   companion capacitors, voltage-source unit entries, gmin) — fixed for
   the lifetime of one Newton call — while [addj_dyn] gets the MOSFET
   small-signal stamps that change every iteration; [statics:false]
   skips the static element loops entirely.  The dense assembly, the
   sparse static re-stamp and the sparsity-pattern discovery all drive
   this same pass, so they can never disagree about what gets stamped.
   The Newton hot path adds the MOSFET stamps with a direct loop in
   {!stamp_sparse} instead, held bit-equal to this pass by a test. *)
let stamp_jacobian ?(statics = true) c ~gmin ~cap_mode ~mos ~addj_static
    ~addj_dyn =
  let nb_base = c.n_nodes - 1 in
  if statics then begin
    Array.iter
      (fun { ra; rb; g } ->
        addj_static ra ra g;
        addj_static rb rb g;
        addj_static ra rb (-.g);
        addj_static rb ra (-.g))
      c.resistors;
    (match cap_mode with
    | Dc -> ()
    | Companion { geq; _ } ->
      Array.iteri
        (fun k { ca; cb; _ } ->
          let g = geq.(k) in
          addj_static ca ca g;
          addj_static cb cb g;
          addj_static ca cb (-.g);
          addj_static cb ca (-.g))
        c.caps);
    Array.iter
      (fun { vpos; vneg; branch; _ } ->
        let bi = nb_base + branch in
        addj_static vpos bi 1.0;
        addj_static vneg bi (-1.0);
        addj_static bi vpos 1.0;
        addj_static bi vneg (-1.0);
        (* ground-referenced entries when a terminal is ground are
           skipped by addj; the branch row still needs a diagonal-free
           entry, which the terms above provide unless both terminals
           are ground *)
        if vpos < 0 && vneg < 0 then addj_static bi bi 1.0)
      c.vsources;
    if gmin > 0.0 then
      for i = 0 to nb_base - 1 do
        addj_static i i gmin
      done
  end;
  Array.iteri
    (fun k m ->
      let hi = mos.ms_hi.(k) and lo = mos.ms_lo.(k) in
      let dhi = mos.ms_dhi.(k)
      and dlo = mos.ms_dlo.(k)
      and dg = mos.ms_dg.(k) in
      addj_dyn hi hi dhi;
      addj_dyn hi lo dlo;
      addj_dyn hi m.mg dg;
      addj_dyn lo hi (-.dhi);
      addj_dyn lo lo (-.dlo);
      addj_dyn lo m.mg (-.dg))
    c.mosfets

(* residual and Jacobian in one shot — the dense assembly and the
   pattern discovery use this combined form *)
let assemble_core ?injections c ~x ~time ~gmin ~source_scale ~cap_mode ~mos
    ~addj_static ~addj_dyn ~residual =
  eval_residual ?injections c ~x ~time ~gmin ~source_scale ~cap_mode ~mos
    ~residual;
  stamp_jacobian c ~gmin ~cap_mode ~mos ~addj_static ~addj_dyn

let assemble ?injections c ~x ~time ~gmin ~source_scale ~cap_mode ~jacobian
    ~residual =
  check_stores c ~x ~residual ~cap_mode;
  Matrix.clear jacobian;
  let mos = make_mos_scratch c in
  let addj i j v = if i >= 0 && j >= 0 then Matrix.add_to jacobian i j v in
  assemble_core ?injections c ~x ~time ~gmin ~source_scale ~cap_mode ~mos
    ~addj_static:addj ~addj_dyn:addj ~residual

(* ---- sparse stamping ---------------------------------------------- *)

(* One discovery pass over assemble_core records every position any
   assembly mode can touch: companion-cap stamps are forced on (dummy
   conductances), gmin forces the node diagonal, and x = 0 is enough
   for the MOSFETs because the channel-orientation swap permutes hi/lo
   within {drain, source} — the stamped position set
   {d,s} x {d,s,gate} is orientation-invariant. *)
let discover_pattern c =
  let n = c.size in
  let b = Sparse.Builder.create ~n in
  let x = Vec.create n in
  let residual = Vec.create n in
  let ncaps = Array.length c.caps in
  let cap_mode =
    Companion { geq = Array.make ncaps 1.0; ieq = Array.make ncaps 0.0 }
  in
  let addj i j _ = if i >= 0 && j >= 0 then Sparse.Builder.add b i j 0.0 in
  assemble_core c ~x ~time:0.0 ~gmin:1.0 ~source_scale:1.0 ~cap_mode
    ~mos:(make_mos_scratch c) ~addj_static:addj ~addj_dyn:addj ~residual;
  Sparse.Builder.build b

let sp_ctx c =
  match c.sp with
  | Some ctx -> ctx
  | None ->
    let pattern = discover_pattern c in
    let n = c.size in
    let slot = Array.make (n * n) (-1) in
    let row_ptr = Sparse.row_ptr pattern and col_idx = Sparse.col_idx pattern in
    for i = 0 to n - 1 do
      for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        slot.((i * n) + col_idx.(p)) <- p
      done
    done;
    let ctx = { pattern; slot } in
    c.sp <- Some ctx;
    ctx

(* Stamp into the values array of a same-pattern sparse matrix.  An
   out-of-pattern stamp would index slot -1 and fail loudly — the
   pattern is a structural superset of every assembly mode by
   construction, so that would be a discovery bug, not a user error.
   [@inline] for the direct MOSFET loop of {!stamp_sparse}. *)
let[@inline] add_slot slot ~n values i j v =
  if i >= 0 && j >= 0 then begin
    let p = Array.unsafe_get slot ((i * n) + j) in
    Array.unsafe_set values p (Array.unsafe_get values p +. v)
  end

let sparse_adder ctx ~n values i j v = add_slot ctx.slot ~n values i j v

let ignore_stamp _ _ _ = ()

(* ---- solver workspace --------------------------------------------- *)

(* Reusable state for a sequence of sparse Newton calls on one compiled
   circuit: the value/static stores, rhs/update vectors and the numeric
   factors survive across calls, so a transient's thousands of steps
   allocate nothing and touch the symbolic registry once.  Single
   owner, never share across threads. *)
type solver_ws = {
  ws_for : compiled;
  ws_ctx : sp_ctx;
  ws_a : Sparse.t;
  ws_static : float array;
  ws_res : float array;
  ws_rhs : float array;
  ws_dx : float array;
  ws_mos : mos_scratch;
  mutable ws_num : Sparse_lu.numeric option;
  (* key of the static stamps currently held in [ws_static]: valid flag,
     the gmin and cap-mode tag they were built under, and a private copy
     of the companion conductances.  Comparing 0(ncaps) floats is an
     order of magnitude cheaper than re-stamping, so consecutive
     transient steps (same gmin, same geq) reuse the static part across
     Newton calls, not just across the iterations of one call. *)
  mutable ws_static_valid : bool;
  mutable ws_static_gmin : float;
  mutable ws_static_dc : bool;
  ws_static_geq : float array;
}

type workspace = { mutable ws : solver_ws option }

let make_workspace () = { ws = None }

(* One persistent workspace per domain: Monte-Carlo trials dispatched to
   a pool domain rebind it from sample to sample, so sparse numeric
   factors (and the value stores) survive across structurally identical
   netlists instead of being reallocated per trial. *)
let domain_ws_key = Domain.DLS.new_key (fun () -> make_workspace ())
let domain_workspace () = Domain.DLS.get domain_ws_key

let build_solver_ws c =
  let ctx = sp_ctx c in
  let a = Sparse.like ctx.pattern in
  {
    ws_for = c;
    ws_ctx = ctx;
    ws_a = a;
    ws_static = Array.make (Sparse.nnz a) 0.0;
    ws_res = Vec.create c.size;
    ws_rhs = Vec.create c.size;
    ws_dx = Vec.create c.size;
    ws_mos = make_mos_scratch c;
    ws_num = None;
    ws_static_valid = false;
    ws_static_gmin = 0.0;
    ws_static_dc = false;
    ws_static_geq = Array.make (Array.length c.caps) 0.0;
  }

let statics_current ws ~gmin ~cap_mode =
  ws.ws_static_valid
  && ws.ws_static_gmin = gmin
  &&
  match cap_mode with
  | Dc -> ws.ws_static_dc
  | Companion { geq; _ } ->
    (not ws.ws_static_dc)
    &&
    let cached = ws.ws_static_geq in
    let nc = Array.length cached in
    let rec eq k =
      k >= nc
      || Array.unsafe_get geq k = Array.unsafe_get cached k && eq (k + 1)
    in
    eq 0

(* Bring the sparse value store up to date with the linearisation
   captured by the latest {!eval_residual}: restore the static stamps
   with a blit when the cached copy is still current, re-stamp them
   otherwise, then add the MOSFET stamps. *)
let stamp_sparse c ws ~gmin ~cap_mode ~mos =
  let ctx = ws.ws_ctx in
  let values = Sparse.values ws.ws_a in
  let static_values = ws.ws_static in
  let nnz = Array.length values in
  if statics_current ws ~gmin ~cap_mode then begin
    Array.blit static_values 0 values 0 nnz;
    (* The MOSFET stamps of [stamp_jacobian ~statics:false], written
       out for the Newton hot path, where a partial application and six
       indirect calls per device would box every value.  They must stay
       in [stamp_jacobian]'s order: a device whose gate is one of its
       channel terminals adds twice into one slot.  The "direct stamp
       equals stamp_jacobian" test holds the two equal, bit for bit. *)
    let slot = ctx.slot and n = c.size in
    let mosfets = c.mosfets in
    for k = 0 to Array.length mosfets - 1 do
      let hi = mos.ms_hi.(k) and lo = mos.ms_lo.(k) and g = mosfets.(k).mg in
      let dhi = mos.ms_dhi.(k)
      and dlo = mos.ms_dlo.(k)
      and dg = mos.ms_dg.(k) in
      add_slot slot ~n values hi hi dhi;
      add_slot slot ~n values hi lo dlo;
      add_slot slot ~n values hi g dg;
      add_slot slot ~n values lo hi (-.dhi);
      add_slot slot ~n values lo lo (-.dlo);
      add_slot slot ~n values lo g (-.dg)
    done
  end
  else begin
    Array.fill static_values 0 nnz 0.0;
    Array.fill values 0 nnz 0.0;
    stamp_jacobian c ~gmin ~cap_mode ~mos
      ~addj_static:(sparse_adder ctx ~n:c.size static_values)
      ~addj_dyn:(sparse_adder ctx ~n:c.size values);
    for p = 0 to nnz - 1 do
      Array.unsafe_set values p
        (Array.unsafe_get values p +. Array.unsafe_get static_values p)
    done;
    ws.ws_static_gmin <- gmin;
    (match cap_mode with
    | Dc -> ws.ws_static_dc <- true
    | Companion { geq; _ } ->
      ws.ws_static_dc <- false;
      Array.blit geq 0 ws.ws_static_geq 0 (Array.length ws.ws_static_geq));
    ws.ws_static_valid <- true
  end

let mos_stamp_paths c ~x ~gmin ~cap_mode =
  let ws = build_solver_ws c in
  let mos = ws.ws_mos in
  check_stores c ~x ~residual:ws.ws_res ~cap_mode;
  eval_residual c ~x ~time:0.0 ~gmin ~source_scale:1.0 ~cap_mode ~mos
    ~residual:ws.ws_res;
  (* the first call stamps and caches the statics; the second finds
     them current and takes the direct MOSFET loop *)
  stamp_sparse c ws ~gmin ~cap_mode ~mos;
  stamp_sparse c ws ~gmin ~cap_mode ~mos;
  let direct = Array.copy (Sparse.values ws.ws_a) in
  let reference = Array.copy ws.ws_static in
  stamp_jacobian ~statics:false c ~gmin ~cap_mode ~mos
    ~addj_static:ignore_stamp
    ~addj_dyn:(sparse_adder ws.ws_ctx ~n:c.size reference);
  (direct, reference)

let solver_ws workspace c =
  match workspace with
  | None -> build_solver_ws c
  | Some w -> (
    match w.ws with
    | Some s when s.ws_for == c -> s
    | prev ->
      let s = build_solver_ws c in
      (* Rebinding to a structurally identical circuit (the Monte-Carlo
         case: every sample compiles the same topology with perturbed
         values): carry the numeric factors over, but only when their
         symbolic is the one the registry would hand out anyway — that
         makes the carried path identical, bit for bit, to building a
         fresh numeric from the registry symbolic, so reuse stays purely
         an allocation saving. *)
      (match prev with
      | Some p -> (
        match p.ws_num with
        | Some nm
          when Sparse.same_pattern p.ws_a s.ws_a
               && (match Sparse_lu.find_symbolic s.ws_a with
                  | Some sym -> sym == Sparse_lu.symbolic nm
                  | None -> false) ->
          s.ws_num <- Some nm
        | _ -> ())
      | None -> ());
      w.ws <- Some s;
      s)

(* ---- factorisation policy ----------------------------------------- *)

(* Created once, at module initialisation: Histogram.get takes the
   registry mutex, which the solver must not take per call from every
   pool domain, and a lazy handle forced by two domains at once raises
   CamlinternalLazy.Undefined. *)
let factorise_hist = Histogram.get "solver.factorise"
let refactorise_hist = Histogram.get "solver.refactorise"

(* Symbolic analysis runs once per matrix pattern: the registry shares
   it across Newton calls, timesteps, Monte-Carlo samples of
   structurally identical netlists and AC frequency points; every later
   factorisation is a cheap numeric refactorisation along the frozen
   pattern.  A frozen pivot gone stale raises Singular and falls back to
   a fresh factorisation (new pivot order).

   The refactorise counter/histogram updates are batched over the whole
   body: both sit behind global mutexes, and hitting them per iteration
   from every pool domain serialises the Monte-Carlo trials that this
   solver exists to parallelise.  The counter total is exact; the
   histogram records one observation per body (the summed
   refactorisation time). *)
let with_factoriser body =
  let refact_n = ref 0 and refact_s = ref 0.0 in
  let analyse a =
    Histogram.time factorise_hist (fun () -> Sparse_lu.factorise a)
  in
  let full_factorise a =
    let sym, nm = analyse a in
    Telemetry.incr "solver.symbolic";
    Sparse_lu.store_symbolic a sym;
    nm
  in
  let refactorise nm a =
    let t0 = Unix.gettimeofday () in
    match Sparse_lu.refactorise nm a with
    | () ->
      refact_s := !refact_s +. (Unix.gettimeofday () -. t0);
      incr refact_n;
      nm
    | exception Sparse_lu.Singular _ ->
      Telemetry.incr "solver.refactorise_fallback";
      full_factorise a
  in
  (* find-or-analyse is one atomic registry operation: two domains
     that meet a pattern at once run its symbolic analysis once, and the
     second refactorises on the stored pivot order *)
  let factor prev a =
    match prev with
    | Some nm -> refactorise nm a
    | None -> (
      match Sparse_lu.find_or_factorise a ~factorise:analyse with
      | _, Some nm ->
        Telemetry.incr "solver.symbolic";
        nm
      | sym, None -> refactorise (Sparse_lu.create_numeric sym) a)
  in
  let result = body factor in
  if !refact_n > 0 then begin
    Telemetry.incr "solver.refactorise" ~by:!refact_n;
    Histogram.observe refactorise_hist !refact_s
  end;
  result

type newton_report = {
  converged : bool;
  iterations : int;
  max_dx : float;
  max_residual : float;
}

let boltzmann_t = 4.14e-21 (* kT at 300 K *)
let gamma_noise = 2.0 (* short-channel excess noise factor *)

let channel_noise_stamps c ~x =
  Array.map
    (fun m ->
      let vd = volt x m.md and vg = volt x m.mg and vs = volt x m.ms in
      let polarity = m.model.Mosfet.polarity in
      let hi, lo, vhi, vlo =
        match polarity with
        | Mosfet.Nmos ->
          if vd >= vs then (m.md, m.ms, vd, vs) else (m.ms, m.md, vs, vd)
        | Mosfet.Pmos ->
          if vs >= vd then (m.ms, m.md, vs, vd) else (m.md, m.ms, vd, vs)
      in
      let vds = vhi -. vlo in
      let vgs =
        match polarity with
        | Mosfet.Nmos -> vg -. vlo
        | Mosfet.Pmos -> vhi -. vg
      in
      let { Mosfet.gm; _ } =
        Mosfet.eval m.model ~w:m.w ~l:m.l ~vth_shift:m.vth_shift
          ~kp_scale:m.kp_scale ~vgs ~vds
      in
      (hi, lo, sqrt (4.0 *. boltzmann_t *. gamma_noise *. Float.max gm 0.0)))
    c.mosfets

let newton ?(max_iter = 50) ?(vtol = 1e-6) ?(rtol = 1e-6) ?(itol = 1e-9)
    ?(dv_limit = 0.5) ?injections ?workspace c ~x ~time ~gmin ~source_scale
    ~cap_mode =
  let n = c.size in
  let nb_base = c.n_nodes - 1 in
  let ws = solver_ws workspace c in
  let residual = ws.ws_res in
  check_stores c ~x ~residual ~cap_mode;
  let run factor =
    let a = ws.ws_a in
    let rhs = ws.ws_rhs and dx = ws.ws_dx in
    let mos = ws.ws_mos in
    let rec loop iter last_dx =
      eval_residual ?injections c ~x ~time ~gmin ~source_scale ~cap_mode ~mos
        ~residual;
      let max_res =
        let acc = ref 0.0 in
        for i = 0 to nb_base - 1 do
          acc := Float.max !acc (Float.abs residual.(i))
        done;
        !acc
      in
      if last_dx < vtol +. (rtol *. Vec.norm_inf x) && max_res < itol && iter > 0
      then { converged = true; iterations = iter; max_dx = last_dx; max_residual = max_res }
      else if iter >= max_iter then
        { converged = false; iterations = iter; max_dx = last_dx; max_residual = max_res }
      else begin
        (* stamped only on iterations that solve, so a converged check
           pays no Jacobian work *)
        stamp_sparse c ws ~gmin ~cap_mode ~mos;
        match factor ws.ws_num a with
        | exception Sparse_lu.Singular _ ->
          { converged = false; iterations = iter; max_dx = last_dx; max_residual = max_res }
        | nm ->
          ws.ws_num <- Some nm;
          for i = 0 to n - 1 do
            rhs.(i) <- -.residual.(i)
          done;
          Sparse_lu.solve_into nm ~b:rhs ~x:dx;
          (* damp on node-voltage updates only *)
          let max_node_dx = ref 0.0 in
          for i = 0 to nb_base - 1 do
            max_node_dx := Float.max !max_node_dx (Float.abs dx.(i))
          done;
          let alpha = if !max_node_dx > dv_limit then dv_limit /. !max_node_dx else 1.0 in
          Vec.axpy ~alpha dx x;
          loop (iter + 1) (alpha *. Float.max !max_node_dx (Vec.norm_inf dx))
      end
    in
    loop 0 infinity
  in
  with_factoriser run
