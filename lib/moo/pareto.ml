type dominance = Dominates | Dominated | Incomparable

let objective_dominance a b =
  let better = ref false and worse = ref false in
  let n = Array.length a in
  for i = 0 to n - 1 do
    if a.(i) < b.(i) then better := true
    else if a.(i) > b.(i) then worse := true
  done;
  match (!better, !worse) with
  | true, false -> Dominates
  | false, true -> Dominated
  | true, true | false, false -> Incomparable

let compare_dominance (a : Problem.evaluation) (b : Problem.evaluation) =
  let fa = Problem.feasible a and fb = Problem.feasible b in
  match (fa, fb) with
  | true, false -> Dominates
  | false, true -> Dominated
  | false, false ->
    if a.constraint_violation < b.constraint_violation then Dominates
    else if a.constraint_violation > b.constraint_violation then Dominated
    else Incomparable
  | true, true -> objective_dominance a.objectives b.objectives

(* Deb's fast non-dominated sort, O(M N^2) *)
let non_dominated_sort evals =
  let n = Array.length evals in
  let dominated_by = Array.make n [] in
  (* dominated_by.(i): indices that i dominates *)
  let dom_count = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match compare_dominance evals.(i) evals.(j) with
      | Dominates ->
        dominated_by.(i) <- j :: dominated_by.(i);
        dom_count.(j) <- dom_count.(j) + 1
      | Dominated ->
        dominated_by.(j) <- i :: dominated_by.(j);
        dom_count.(i) <- dom_count.(i) + 1
      | Incomparable -> ()
    done
  done;
  let ranks = Array.make n (-1) in
  let fronts = ref [] in
  let current = ref [] in
  for i = 0 to n - 1 do
    if dom_count.(i) = 0 then begin
      ranks.(i) <- 0;
      current := i :: !current
    end
  done;
  let rank = ref 0 in
  while !current <> [] do
    let this_front = List.rev !current in
    fronts := Array.of_list this_front :: !fronts;
    let next = ref [] in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            dom_count.(j) <- dom_count.(j) - 1;
            if dom_count.(j) = 0 then begin
              ranks.(j) <- !rank + 1;
              next := j :: !next
            end)
          dominated_by.(i))
      this_front;
    incr rank;
    current := List.rev !next
  done;
  (ranks, Array.of_list (List.rev !fronts))

let crowding_distance evals front =
  let m = Array.length front in
  let dist = Array.make m 0.0 in
  if m <= 2 then Array.map (fun _ -> infinity) dist
  else begin
    let n_obj = Array.length evals.(front.(0)).Problem.objectives in
    let order = Array.init m (fun i -> i) in
    for k = 0 to n_obj - 1 do
      let value i = evals.(front.(i)).Problem.objectives.(k) in
      Array.sort (fun a b -> compare (value a) (value b)) order;
      let vmin = value order.(0) and vmax = value order.(m - 1) in
      dist.(order.(0)) <- infinity;
      dist.(order.(m - 1)) <- infinity;
      let span = vmax -. vmin in
      if span > 0.0 then
        for r = 1 to m - 2 do
          let i = order.(r) in
          if dist.(i) <> infinity then
            dist.(i) <-
              dist.(i) +. ((value order.(r + 1) -. value order.(r - 1)) /. span)
        done
    done;
    dist
  end

let non_dominated evals =
  let _, fronts = non_dominated_sort evals in
  if Array.length fronts = 0 then [||] else fronts.(0)

let hypervolume_2d ~reference evals =
  Array.iter
    (fun (e : Problem.evaluation) ->
      if Array.length e.objectives <> 2 then
        invalid_arg "Pareto.hypervolume_2d: need 2 objectives")
    evals;
  if Array.length reference <> 2 then
    invalid_arg "Pareto.hypervolume_2d: reference must have 2 entries";
  let pts =
    Array.to_list evals
    |> List.filter_map (fun (e : Problem.evaluation) ->
           let x = e.objectives.(0) and y = e.objectives.(1) in
           if x < reference.(0) && y < reference.(1) then Some (x, y) else None)
  in
  (* keep only the non-dominated staircase, sweep by x *)
  let sorted = List.sort compare pts in
  let rec sweep last_y acc = function
    | [] -> acc
    | (x, y) :: rest ->
      if y >= last_y then sweep last_y acc rest
      else
        let area = (reference.(0) -. x) *. (last_y -. y) in
        sweep y (acc +. area) rest
  in
  sweep reference.(1) 0.0 sorted

let hypervolume_mc ?(samples = 20000) ~prng ~reference ~ideal evals =
  let d = Array.length reference in
  if Array.length ideal <> d then
    invalid_arg "Pareto.hypervolume_mc: ideal/reference mismatch";
  let pts =
    Array.to_list evals
    |> List.filter (fun (e : Problem.evaluation) ->
           Array.length e.objectives = d)
    |> List.map (fun (e : Problem.evaluation) -> e.objectives)
  in
  if pts = [] then 0.0
  else begin
    let hits = ref 0 in
    let probe = Array.make d 0.0 in
    for _ = 1 to samples do
      for k = 0 to d - 1 do
        probe.(k) <- Repro_util.Prng.range prng ideal.(k) reference.(k)
      done;
      let dominated =
        List.exists
          (fun p ->
            let ok = ref true in
            for k = 0 to d - 1 do
              if p.(k) > probe.(k) then ok := false
            done;
            !ok)
          pts
      in
      if dominated then incr hits
    done;
    let volume_box =
      Array.to_list (Array.init d (fun k -> reference.(k) -. ideal.(k)))
      |> List.fold_left ( *. ) 1.0
    in
    volume_box *. float_of_int !hits /. float_of_int samples
  end

let spread_2d evals =
  let pts =
    Array.to_list evals
    |> List.map (fun (e : Problem.evaluation) ->
           (e.objectives.(0), e.objectives.(1)))
    |> List.sort compare
  in
  match pts with
  | [] | [ _ ] | [ _; _ ] -> 0.0
  | pts ->
    let dists =
      let rec consecutive = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
          sqrt (((x2 -. x1) ** 2.0) +. ((y2 -. y1) ** 2.0)) :: consecutive rest
        | [ _ ] | [] -> []
      in
      Array.of_list (consecutive pts)
    in
    let mean = Repro_util.Stats.mean dists in
    if mean = 0.0 then 0.0
    else
      Array.fold_left (fun acc d -> acc +. Float.abs (d -. mean)) 0.0 dists
      /. (float_of_int (Array.length dists) *. mean)
