type params = { c1 : float; c2 : float; r1 : float }

let validate p =
  if p.c1 <= 0.0 || p.c2 <= 0.0 || p.r1 <= 0.0 then
    invalid_arg "Loop_filter: component values must be positive"

type state = { mutable vctl : float; mutable vc1 : float }

let initial v = { vctl = v; vc1 = v }

(* Backward Euler on
     C2 dvctl/dt = i_in - (vctl - vc1)/R1
     C1 dvc1/dt  = (vctl - vc1)/R1
   solving the 2x2 implicit system analytically.  With a = dt/(R1 C2)
   and b = dt/(R1 C1) the unknowns v = vctl', u = vc1' satisfy
     v (1 + a) - a u = vctl + dt i/C2
     -b v + (1 + b) u = vc1 *)
type coeffs = {
  a : float;
  b : float;
  one_a : float;
  one_b : float;
  det : float;
}

let coeffs p ~dt =
  let a = dt /. (p.r1 *. p.c2) in
  let b = dt /. (p.r1 *. p.c1) in
  let one_a = 1.0 +. a and one_b = 1.0 +. b in
  { a; b; one_a; one_b; det = (one_a *. one_b) -. (a *. b) }

let injection p ~i_in ~dt = dt *. i_in /. p.c2

let advance k s ~inj =
  let rhs1 = s.vctl +. inj in
  let rhs2 = s.vc1 in
  s.vctl <- ((k.one_b *. rhs1) +. (k.a *. rhs2)) /. k.det;
  s.vc1 <- ((k.b *. rhs1) +. (k.one_a *. rhs2)) /. k.det

let step p s ~i_in ~dt =
  let next = { vctl = s.vctl; vc1 = s.vc1 } in
  advance (coeffs p ~dt) next ~inj:(injection p ~i_in ~dt);
  next

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
