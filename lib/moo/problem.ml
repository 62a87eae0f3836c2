type evaluation = {
  objectives : float array;
  constraint_violation : float;
}

let feasible e = e.constraint_violation <= 0.0

type batch =
  ?pool:Repro_engine.Pool.t ->
  ?busy:Repro_obs.Histogram.t ->
  float array array ->
  evaluation array

type t = {
  name : string;
  bounds : (float * float) array;
  objective_names : string array;
  evaluate : float array -> evaluation;
  evaluate_batch : batch option;
}

let n_vars t = Array.length t.bounds
let n_objectives t = Array.length t.objective_names

let validate ~bounds ~objective_names =
  if Array.length bounds = 0 then invalid_arg "Problem.create: no variables";
  if Array.length objective_names = 0 then
    invalid_arg "Problem.create: no objectives";
  Array.iter
    (fun (lo, hi) ->
      if not (lo < hi) then invalid_arg "Problem.create: inverted bounds")
    bounds

let create ~name ~bounds ~objective_names evaluate =
  validate ~bounds ~objective_names;
  { name; bounds; objective_names; evaluate; evaluate_batch = None }

let create_batched ~name ~bounds ~objective_names (batch : batch) =
  validate ~bounds ~objective_names;
  {
    name;
    bounds;
    objective_names;
    evaluate = (fun x -> (batch [| x |]).(0));
    evaluate_batch = Some batch;
  }

let clamp t x =
  Array.mapi
    (fun i v ->
      let lo, hi = t.bounds.(i) in
      Repro_util.Floatx.clamp ~lo ~hi v)
    x

let random_point t prng =
  Array.map (fun (lo, hi) -> Repro_util.Prng.range prng lo hi) t.bounds

(* ---- batch evaluation -------------------------------------------- *)

type evaluator = t -> float array array -> evaluation array

let serial_evaluator t xs =
  let n = Array.length xs in
  let out = Array.make n { objectives = [||]; constraint_violation = 0.0 } in
  for i = 0 to n - 1 do
    out.(i) <- t.evaluate xs.(i)
  done;
  out

let evaluate_all ?(evaluator = serial_evaluator) t xs = evaluator t xs

(* evaluation <-> flat float array, for the content-addressed cache *)
let pack e = Array.append [| e.constraint_violation |] e.objectives

(* a stored value of the wrong length — a cache line cut short — is not
   an evaluation of [t]; [None] turns it into a miss *)
let unpack t v =
  let m = n_objectives t in
  if Array.length v <> 1 + m then None
  else Some { constraint_violation = v.(0); objectives = Array.sub v 1 m }

(* the registry histogram is resolved once, at module initialisation
   (pool domains would race to force a lazy one); each evaluation then
   pays one clock read + one mutex-protected bucket bump *)
let eval_hist = Repro_obs.Histogram.get "eval.duration"

let timed_evaluate t x =
  Repro_obs.Histogram.time eval_hist (fun () -> t.evaluate x)

let cache_kind ~salt t =
  "eval:" ^ t.name ^ if salt = "" then "" else ":" ^ salt

(* consult the cache on the calling domain, hand only the misses to the
   problem's batch evaluation, or else map them over the pool, then
   store and reassemble by index so output order and content are
   independent of which domain computed what *)
let parallel_evaluator ?pool ?cache ?(salt = "") () t xs =
  let module E = Repro_engine in
  let evaluate xs =
    match t.evaluate_batch with
    | Some batch -> batch ?pool ~busy:eval_hist xs
    | None -> E.Parmap.map ?pool (timed_evaluate t) xs
  in
  let n = Array.length xs in
  Repro_obs.Trace.span "eval.batch"
    ~args:[ ("problem", t.name); ("points", string_of_int n) ]
  @@ fun () ->
  E.Telemetry.time "eval.wall" @@ fun () ->
  match cache with
  | None ->
    E.Telemetry.incr "eval.runs" ~by:n;
    evaluate xs
  | Some cache ->
    let kind = cache_kind ~salt t in
    let keys = Array.map (fun x -> E.Cache.key ~kind x) xs in
    let out = Array.make n None in
    let miss_idx = ref [] in
    for i = n - 1 downto 0 do
      match Option.bind (E.Cache.find cache keys.(i)) (unpack t) with
      | Some e -> out.(i) <- Some e
      | None -> miss_idx := i :: !miss_idx
    done;
    let misses = Array.of_list !miss_idx in
    E.Telemetry.incr "eval.runs" ~by:(Array.length misses);
    E.Telemetry.incr "eval.cache_hits" ~by:(n - Array.length misses);
    Repro_obs.Trace.instant "eval.cache"
      ~args:
        [
          ("hits", string_of_int (n - Array.length misses));
          ("misses", string_of_int (Array.length misses));
        ];
    let fresh = evaluate (Array.map (fun i -> xs.(i)) misses) in
    Array.iteri
      (fun k i ->
        E.Cache.store cache keys.(i) (pack fresh.(k));
        out.(i) <- Some fresh.(k))
      misses;
    Array.map (function Some e -> e | None -> assert false) out
