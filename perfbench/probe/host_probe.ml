(* Host drift probe: a fixed integer-and-float loop that links no
   library of this repository, so its time moves only with the host
   (frequency, co-tenants, thermal state), never with a code change.
   Timed before and after every bench run. *)

let iterations = 20_000_000

let spin () =
  let x = ref 88172645463325252 and acc = ref 0.0 in
  for _ = 1 to iterations do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc +. Float.of_int (!x land 1023)
  done;
  (!x, !acc)

(* median of three timings, in milliseconds *)
let ms () =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (spin ()));
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let a = Array.init 3 (fun _ -> once ()) in
  Array.sort Float.compare a;
  a.(1)
