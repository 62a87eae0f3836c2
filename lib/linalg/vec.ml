type t = float array

let create n = Array.make n 0.0
let copy = Array.copy
let fill v x = Array.fill v 0 (Array.length v) x

let dot x y =
  let n = Array.length x in
  assert (Array.length y = n);
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

(* a plain loop: [Array.fold_left] would box its accumulator per
   element *)
let norm_inf x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs x.(i))
  done;
  !acc

let max_abs_diff x y =
  let n = Array.length x in
  assert (Array.length y = n);
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := Float.max !acc (Float.abs (x.(i) -. y.(i)))
  done;
  !acc

let scale alpha x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- alpha *. x.(i)
  done

let add x y = Array.mapi (fun i xi -> xi +. y.(i)) x
let sub x y = Array.mapi (fun i xi -> xi -. y.(i)) x

let pp ppf v =
  Format.fprintf ppf "[|";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%g" x)
    v;
  Format.fprintf ppf "|]"
