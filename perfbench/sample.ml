(* Order statistics over the bench's own timing samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sample.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it, so the value is always one that was
   observed.  A tail percentile is only reported when at least ten
   samples lie beyond it; with fewer, the "p99" of a short run would
   just be its maximum. *)
let min_beyond = 10

let percentile p xs =
  if not (p > 0.0 && p < 100.0) then
    invalid_arg (Printf.sprintf "Sample.percentile: p = %g outside (0, 100)" p);
  let n = Array.length xs in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0))) in
  let beyond = n - rank in
  if beyond < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" p n beyond
         min_beyond)
  else Ok (sorted xs).(rank - 1)
