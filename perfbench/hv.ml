(* Hypervolume as a fraction of a fixed box.

   The raw indicator carries the product of the objectives' units
   (s x s x A for the PLL front, about 5e-20), which hides its scale.
   Dividing by the volume of the box between a fixed [ideal] corner and
   the reference point makes it read as the dominated share of that box.
   Coordinates better than [ideal] are clipped to it, so the fraction
   never exceeds 1; points that do not dominate the reference add
   nothing, as in [Repro_moo.Hypervolume.exact]. *)

let box_volume ~ideal ~reference =
  let d = Array.length reference in
  if d = 0 || Array.length ideal <> d then
    invalid_arg "Hv.box_volume: ideal and reference need the same dimension";
  let v = ref 1.0 in
  for i = 0 to d - 1 do
    let side = reference.(i) -. ideal.(i) in
    if not (side > 0.0) then
      invalid_arg
        (Printf.sprintf "Hv.box_volume: empty side %d [%g, %g]" i ideal.(i)
           reference.(i));
    v := !v *. side
  done;
  !v

let fraction ~ideal ~reference points =
  let box = box_volume ~ideal ~reference in
  let clip p = Array.mapi (fun i x -> Float.max ideal.(i) x) p in
  Repro_moo.Hypervolume.exact ~reference (Array.map clip points) /. box
