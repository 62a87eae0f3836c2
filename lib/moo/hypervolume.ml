(* Exact hypervolume for minimisation: the Lebesgue measure of the
   region dominated by the point set and bounded by the reference
   point.  Computed by recursive dimension slicing (HSO-style): sort by
   the last objective, sweep slabs between consecutive values, and
   multiply each slab's thickness by the (d-1)-dimensional hypervolume
   of the points entering it.  Fully deterministic — no sampling, no
   PRNG — so it is safe to compute inside an observed run without
   perturbing anything.

   Cost is O(n log n) at d = 2 and O(n^(d-1) log n) in the worst case
   above, fine for the front sizes here (tens of points, d <= 5). *)

(* 2-D staircase over points strictly dominating the reference *)
let staircase ~rx ~ry pts =
  let pts = List.sort (fun a b -> compare a.(0) b.(0)) pts in
  let area = ref 0.0 in
  let bound = ref ry in
  List.iter
    (fun p ->
      if p.(1) < !bound then begin
        area := !area +. ((rx -. p.(0)) *. (!bound -. p.(1)));
        bound := p.(1)
      end)
    pts;
  !area

(* [pts] strictly dominate [reference] in coordinates 0..d-1 *)
let rec slice d ~reference pts =
  match pts with
  | [] -> 0.0
  | _ when d = 1 ->
    reference.(0) -. List.fold_left (fun m p -> Float.min m p.(0)) infinity pts
  | _ when d = 2 -> staircase ~rx:reference.(0) ~ry:reference.(1) pts
  | _ ->
    let last = d - 1 in
    let sorted =
      List.sort (fun a b -> compare a.(last) b.(last)) pts |> Array.of_list
    in
    let n = Array.length sorted in
    let vol = ref 0.0 in
    let prefix = ref [] in
    for k = 0 to n - 1 do
      prefix := sorted.(k) :: !prefix;
      let z = sorted.(k).(last) in
      let z_next = if k + 1 < n then sorted.(k + 1).(last) else reference.(last) in
      if z_next > z then
        vol := !vol +. ((z_next -. z) *. slice (d - 1) ~reference !prefix)
    done;
    !vol

let exact ~reference points =
  let d = Array.length reference in
  if d = 0 then invalid_arg "Hypervolume.exact: empty reference";
  let dominates p =
    Array.length p = d
    &&
    let ok = ref true in
    for i = 0 to d - 1 do
      if not (p.(i) < reference.(i)) then ok := false
    done;
    !ok
  in
  let pts = List.filter dominates (Array.to_list points) in
  slice d ~reference pts

let of_front ?dims ~reference evals =
  let project (o : float array) =
    match dims with None -> o | Some idx -> Array.map (fun i -> o.(i)) idx
  in
  let pts =
    Array.to_list evals
    |> List.filter Problem.feasible
    |> List.map (fun e -> project e.Problem.objectives)
    |> Array.of_list
  in
  exact ~reference pts
