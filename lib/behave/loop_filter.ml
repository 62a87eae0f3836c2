type params = { c1 : float; c2 : float; r1 : float }

let validate p =
  if p.c1 <= 0.0 || p.c2 <= 0.0 || p.r1 <= 0.0 then
    invalid_arg "Loop_filter: component values must be positive"

let injection p ~i_in ~dt = dt *. i_in /. p.c2

let impedance p w =
  let open Complex in
  let s = { re = 0.0; im = w } in
  (* Z = (1 + s R1 C1) / (s (C1 + C2) (1 + s R1 Cs)), Cs = C1 C2/(C1+C2) *)
  let cs = p.c1 *. p.c2 /. (p.c1 +. p.c2) in
  let one = { re = 1.0; im = 0.0 } in
  let num = add one (mul s { re = p.r1 *. p.c1; im = 0.0 }) in
  let den =
    mul
      (mul s { re = p.c1 +. p.c2; im = 0.0 })
      (add one (mul s { re = p.r1 *. cs; im = 0.0 }))
  in
  div num den

let pole_zero p =
  let cs = p.c1 *. p.c2 /. (p.c1 +. p.c2) in
  (1.0 /. (p.r1 *. p.c1), 1.0 /. (p.r1 *. cs), p.c1 +. p.c2)
