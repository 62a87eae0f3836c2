type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable spare : float option; (* second Box-Muller deviate *)
}

(* splitmix64: used only to expand a seed into initial xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3; spare = None }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ *)
let bits64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create seed

let split_n t n =
  if n < 0 then invalid_arg "Prng.split_n: negative count";
  let out = Array.make n t in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

(* xoshiro256 jump polynomial: advances the state by 2^128 steps, giving
   2^128 non-overlapping subsequences. *)
let jump_constants =
  [| 0x180ec6d33cfd0abaL; 0xd5a61266f0c9392cL; 0xa9582618e03fc9aaL;
     0x39abdc4529b1661cL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun c ->
      for b = 0 to 63 do
        if Int64.logand c (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 t.s0;
          s1 := Int64.logxor !s1 t.s1;
          s2 := Int64.logxor !s2 t.s2;
          s3 := Int64.logxor !s3 t.s3
        end;
        ignore (bits64 t)
      done)
    jump_constants;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3;
  t.spare <- None

let copy t = { t with spare = t.spare }

(* 53-bit mantissa from the top bits, uniform in [0,1). *)
let uniform t =
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. 0x1.0p-53

let float t bound = uniform t *. bound
let range t lo hi = lo +. (uniform t *. (hi -. lo))

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* rejection-free for our purposes: modulo bias is negligible for n << 2^63 *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int n))

let bool t = Int64.logand (bits64 t) 1L = 1L

let normal t =
  match t.spare with
  | Some z ->
    t.spare <- None;
    z
  | None ->
    (* Box-Muller on (0,1] uniforms to avoid log 0 *)
    let u1 = 1.0 -. uniform t in
    let u2 = uniform t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.spare <- Some (r *. sin theta);
    r *. cos theta

let gaussian t ~mean ~sigma = mean +. (sigma *. normal t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))
