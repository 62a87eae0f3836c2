module Prng = Repro_util.Prng

let resolve = function Some p -> p | None -> Pool.get_default ()

let assemble results =
  Array.map (function Some v -> v | None -> assert false) results

let map ?pool ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let pool = resolve pool in
    let results = Array.make n None in
    let failure = Atomic.make None in
    let body i =
      if Atomic.get failure = None then
        try results.(i) <- Some (f arr.(i))
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    Pool.run_items ?chunk pool n body;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> assemble results
  end

let mapi ?pool ?chunk f arr =
  let n = Array.length arr in
  let indexed = Array.init n (fun i -> (i, arr.(i))) in
  map ?pool ?chunk (fun (i, x) -> f i x) indexed

let init ?pool ?chunk n f =
  if n < 0 then invalid_arg "Parmap.init: negative length";
  map ?pool ?chunk f (Array.init n (fun i -> i))

let map_seeded ?pool ?chunk ~prng f arr =
  (* One child stream per element, split sequentially *before* dispatch:
     stream identity depends only on the element index, never on which
     worker runs it or in what order — the determinism keystone. *)
  let streams = Prng.split_n prng (Array.length arr) in
  let indexed = Array.mapi (fun i x -> (streams.(i), x)) arr in
  map ?pool ?chunk (fun (stream, x) -> f stream x) indexed

let map_chunks ?pool ?busy f arr =
  let n = Array.length arr in
  let run chunk =
    let out =
      match busy with
      | None -> f chunk
      | Some h -> Repro_obs.Histogram.time h (fun () -> f chunk)
    in
    if Array.length out <> Array.length chunk then
      invalid_arg "Parmap.map_chunks: one result per element";
    out
  in
  if n = 0 then [||]
  else if n = 1 || Pool.inside_worker () then run arr
  else begin
    let pool = resolve pool in
    (* chunk [i] of [k] covers [i n / k, (i + 1) n / k): sizes differ by
       at most one *)
    let k = min n (Pool.size pool) in
    let chunks =
      Array.init k (fun i ->
          let lo = i * n / k in
          Array.sub arr lo (((i + 1) * n / k) - lo))
    in
    Array.concat (Array.to_list (map ~pool ~chunk:1 run chunks))
  end
