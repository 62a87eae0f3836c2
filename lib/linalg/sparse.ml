type t = {
  n : int;
  row_ptr : int array; (* length n + 1 *)
  col_idx : int array; (* length nnz, ascending within each row *)
  values : float array; (* length nnz, mutable *)
  fingerprint : int; (* structural hash, computed once at build *)
}

(* FNV-1a folded to OCaml's 63-bit int range; structural only, values
   never participate *)
let fnv_prime = 0x100000001b3

let fingerprint_of ~n ~row_ptr ~col_idx =
  let h = ref 0x3bf29ce484222325 (* FNV offset basis folded to 62 bits *) in
  let mix v = h := (!h lxor v) * fnv_prime land max_int in
  mix n;
  Array.iter mix row_ptr;
  Array.iter mix col_idx;
  !h

module Builder = struct
  (* per-row association from column to accumulated value; rows are
     tiny for MNA systems so a plain Hashtbl per row is cheap and keeps
     duplicate stamps O(1) *)
  type b = { bn : int; rows : (int, float ref) Hashtbl.t array }

  let create ~n =
    if n < 0 then invalid_arg "Sparse.Builder.create: negative size";
    { bn = n; rows = Array.init n (fun _ -> Hashtbl.create 8) }

  let add b i j v =
    if i < 0 || i >= b.bn || j < 0 || j >= b.bn then
      invalid_arg
        (Printf.sprintf "Sparse.Builder.add: index (%d,%d) outside %dx%d" i j
           b.bn b.bn);
    match Hashtbl.find_opt b.rows.(i) j with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add b.rows.(i) j (ref v)

  let build b =
    let n = b.bn in
    let row_ptr = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + Hashtbl.length b.rows.(i)
    done;
    let nnz = row_ptr.(n) in
    let col_idx = Array.make nnz 0 in
    let values = Array.make nnz 0.0 in
    for i = 0 to n - 1 do
      let cols =
        List.sort compare
          (Hashtbl.fold (fun j _ acc -> j :: acc) b.rows.(i) [])
      in
      List.iteri
        (fun k j ->
          let p = row_ptr.(i) + k in
          col_idx.(p) <- j;
          values.(p) <- !(Hashtbl.find b.rows.(i) j))
        cols
    done;
    { n; row_ptr; col_idx; values; fingerprint = fingerprint_of ~n ~row_ptr ~col_idx }
end

let n t = t.n
let nnz t = t.row_ptr.(t.n)
let values t = t.values
let row_ptr t = t.row_ptr
let col_idx t = t.col_idx
let fingerprint t = t.fingerprint
let like t = { t with values = Array.make (Array.length t.values) 0.0 }

let index t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then -1
  else begin
    let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = t.col_idx.(mid) in
      if c = j then found := mid
      else if c < j then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let get t i j =
  match index t i j with
  | -1 -> 0.0
  | p -> t.values.(p)

let same_pattern a b =
  a.n = b.n
  && (a.row_ptr == b.row_ptr || a.row_ptr = b.row_ptr)
  && (a.col_idx == b.col_idx || a.col_idx = b.col_idx)

let mul_vec t v =
  if Array.length v <> t.n then invalid_arg "Sparse.mul_vec: size mismatch";
  Array.init t.n (fun i ->
      let acc = ref 0.0 in
      for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(p) *. v.(t.col_idx.(p)))
      done;
      !acc)

let of_matrix ?(keep_zeros = false) m =
  let nn = Matrix.rows m in
  if Matrix.cols m <> nn then invalid_arg "Sparse.of_matrix: matrix not square";
  let b = Builder.create ~n:nn in
  for i = 0 to nn - 1 do
    for j = 0 to nn - 1 do
      let v = Matrix.get m i j in
      if keep_zeros || v <> 0.0 then Builder.add b i j v
    done
  done;
  Builder.build b

let to_matrix t =
  let m = Matrix.create t.n t.n in
  for i = 0 to t.n - 1 do
    for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Matrix.set m i t.col_idx.(p) t.values.(p)
    done
  done;
  m
