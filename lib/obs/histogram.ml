type t = {
  lo : float;
  log_lo : float;
  scale : float; (* buckets / ln (hi / lo) *)
  counts : int array;
  mutex : Mutex.t;
  mutable total : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create () =
  let buckets = 72 and lo = 1e-6 and hi = 1e3 in
  {
    lo;
    log_lo = log lo;
    scale = float_of_int buckets /. (log hi -. log lo);
    counts = Array.make buckets 0;
    mutex = Mutex.create ();
    total = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
  }

let buckets t = Array.length t.counts

let bucket_of t v =
  if v <= t.lo then 0
  else
    let k = int_of_float ((log v -. t.log_lo) *. t.scale) in
    if k < 0 then 0 else if k >= buckets t then buckets t - 1 else k

(* geometric lower edge of bucket [k] *)
let edge t k = exp (t.log_lo +. (float_of_int k /. t.scale))

let observe t v =
  if Float.is_finite v then begin
    Mutex.lock t.mutex;
    t.counts.(bucket_of t v) <- t.counts.(bucket_of t v) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v;
    Mutex.unlock t.mutex
  end

let time t f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe t (Unix.gettimeofday () -. t0)) f

(* quantile over an already-consistent copy of the counters: walk the
   cumulative counts to the target rank, interpolate geometrically
   inside the bucket, then clamp into the observed [min, max] — which
   makes single-bucket data (all values equal) exact and every quantile
   bounded by the true extremes *)
let quantile_of ~counts ~total ~vmin ~vmax t q =
  if total = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = q *. float_of_int (total - 1) in
    let k = ref 0 in
    let below = ref 0 in
    while
      !k < Array.length counts - 1
      && float_of_int (!below + counts.(!k)) <= rank
    do
      below := !below + counts.(!k);
      incr k
    done;
    let in_bucket = max 1 counts.(!k) in
    let frac = (rank -. float_of_int !below) /. float_of_int in_bucket in
    let est = edge t !k *. exp (frac /. t.scale) in
    Float.min vmax (Float.max vmin est)
  end

type stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let stats t =
  Mutex.lock t.mutex;
  let counts = Array.copy t.counts in
  let total = t.total and sum = t.sum in
  let vmin = t.vmin and vmax = t.vmax in
  Mutex.unlock t.mutex;
  if total = 0 then
    { count = 0; sum = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  else
    let q p = quantile_of ~counts ~total ~vmin ~vmax t p in
    { count = total; sum; min = vmin; max = vmax;
      p50 = q 0.5; p90 = q 0.9; p99 = q 0.99 }

let quantile t q =
  Mutex.lock t.mutex;
  let counts = Array.copy t.counts in
  let total = t.total and vmin = t.vmin and vmax = t.vmax in
  Mutex.unlock t.mutex;
  quantile_of ~counts ~total ~vmin ~vmax t q

let count t =
  Mutex.lock t.mutex;
  let n = t.total in
  Mutex.unlock t.mutex;
  n

(* ---- named registry (the /v1/metrics surface) -------------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let get name =
  Mutex.lock registry_mutex;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
      let h = create () in
      Hashtbl.add registry name h;
      h
  in
  Mutex.unlock registry_mutex;
  h

let all () =
  Mutex.lock registry_mutex;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let clear_registry () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex
