module Table_nd = Repro_interp.Table_nd
module E = Repro_engine

type options = {
  guard : float;
  min_points : int;
  max_points : int;
  scheme : Table_nd.scheme;
}

let default_options =
  {
    guard = 0.1;
    min_points = 16;
    max_points = 256;
    scheme = Table_nd.Rbf Table_nd.Thin_plate;
  }

type t = {
  options : options;
  mutable xs : float array array;
  mutable evs : Problem.evaluation array;
}

let create ?(options = default_options) () =
  if not (options.guard >= 0.0) then
    invalid_arg "Surrogate.create: guard must be >= 0";
  if options.min_points < 2 then
    invalid_arg "Surrogate.create: min_points must be >= 2";
  if options.max_points < options.min_points then
    invalid_arg "Surrogate.create: max_points must be >= min_points";
  { options; xs = [||]; evs = [||] }

let options t = t.options
let size t = Array.length t.xs
let archive t = Array.map2 (fun x e -> (x, e)) t.xs t.evs

(* the exactly-evaluated archive, newest last, FIFO-capped so the fit
   cost stays bounded *)
let observe t xs evs =
  let xs' = Array.append t.xs xs and evs' = Array.append t.evs evs in
  let n = Array.length xs' in
  let keep = min n t.options.max_points in
  t.xs <- Array.sub xs' (n - keep) keep;
  t.evs <- Array.sub evs' (n - keep) keep

(* A screened-out candidate: infinitely infeasible, so Deb
   constraint-domination discards it against anything that was actually
   evaluated, it can never enter a Pareto front, and two rejects are
   mutually incomparable. *)
let rejected_evaluation problem =
  {
    Problem.objectives = Array.make (Problem.n_objectives problem) infinity;
    constraint_violation = infinity;
  }

let is_rejected (e : Problem.evaluation) = e.Problem.constraint_violation = infinity

(* Optimistic (guard-banded) predictions: every predicted coordinate is
   shifted by [guard] × the archive spread in that coordinate towards
   "better", so a candidate is only rejected when the surrogate says it
   is dominated by more than the model's own headroom. *)
let guarded_predictions t problem xs =
  let m = Array.length t.xs in
  if m < max t.options.min_points 2 then None
  else begin
    let nobj = Problem.n_objectives problem in
    let guard = t.options.guard in
    (* per-objective fits use only the points whose value is finite —
       failed simulations carry [infinity] objectives, which would
       poison the solve; they still feed the violation model below *)
    let objective_model k =
      let pts = ref [] and vals = ref [] in
      for i = m - 1 downto 0 do
        let v = t.evs.(i).Problem.objectives.(k) in
        if Float.is_finite v then begin
          pts := t.xs.(i) :: !pts;
          vals := v :: !vals
        end
      done;
      let pts = Array.of_list !pts and vals = Array.of_list !vals in
      if Array.length pts < 2 then None
      else begin
        let lo = Array.fold_left min infinity vals in
        let hi = Array.fold_left max neg_infinity vals in
        let spread = if hi > lo then hi -. lo else Float.abs hi +. 1.0 in
        Some (Table_nd.build ~scheme:t.options.scheme pts vals, spread)
      end
    in
    let models = Array.init nobj objective_model in
    let cv_model =
      let vals = Array.map (fun e -> e.Problem.constraint_violation) t.evs in
      let finite = Array.for_all Float.is_finite vals in
      if not finite then None
      else begin
        (* headroom scales with the violations actually observed — a
           fixed floor would swamp problems whose violation magnitudes
           are small and disable constraint screening entirely *)
        let hi = Array.fold_left max 0.0 vals in
        Some (Table_nd.build ~scheme:t.options.scheme t.xs vals, hi)
      end
    in
    let predict x =
      let objectives =
        Array.map
          (function
            (* no usable fit: predict "unbeatably good", i.e. fail open *)
            | None -> neg_infinity
            | Some (model, spread) -> Table_nd.eval model x -. (guard *. spread))
          models
      in
      let constraint_violation =
        match cv_model with
        | None -> 0.0
        | Some (model, spread) ->
          Float.max 0.0 (Table_nd.eval model x -. (guard *. spread))
      in
      { Problem.objectives; constraint_violation }
    in
    Some (Array.map predict xs)
  end

(* current front of the archive under Deb constraint-domination (kept
   infeasible-aware: before the first feasible point the best-violation
   points still screen hopeless candidates) *)
let archive_front t =
  let idx = Pareto.non_dominated t.evs in
  Array.map (fun i -> t.evs.(i)) idx

let screen t problem xs =
  match guarded_predictions t problem xs with
  | None -> None
  | Some preds ->
    let front = archive_front t in
    let keep pred =
      not
        (Array.exists
           (fun f -> Pareto.compare_dominance f pred = Pareto.Dominates)
           front)
    in
    Some (Array.map keep preds)

let wrap t inner : Problem.evaluator =
 fun problem xs ->
  let n = Array.length xs in
  match if n = 0 then None else screen t problem xs with
  | None ->
    (* archive still too thin to trust a fit: pay for everything *)
    let evs = inner problem xs in
    observe t xs evs;
    E.Telemetry.incr "eval.paid" ~by:n;
    evs
  | Some keep ->
    let paid_idx = ref [] in
    for i = n - 1 downto 0 do
      if keep.(i) then paid_idx := i :: !paid_idx
    done;
    let paid_idx = Array.of_list !paid_idx in
    let paid_xs = Array.map (fun i -> xs.(i)) paid_idx in
    let paid_evs = inner problem paid_xs in
    observe t paid_xs paid_evs;
    let out = Array.make n (rejected_evaluation problem) in
    Array.iteri (fun k i -> out.(i) <- paid_evs.(k)) paid_idx;
    let paid = Array.length paid_idx in
    E.Telemetry.incr "eval.paid" ~by:paid;
    E.Telemetry.incr "eval.avoided" ~by:(n - paid);
    Repro_obs.Trace.instant "surrogate.screen"
      ~args:
        [
          ("batch", string_of_int n);
          ("avoided", string_of_int (n - paid));
        ];
    out
