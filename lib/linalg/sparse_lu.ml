type symbolic = {
  n : int;
  nnz_a : int;
  (* the pattern this symbolic was built from; physically shared with
     every [Sparse.like] copy, so the registry's verification is
     usually a pointer comparison *)
  pat_row_ptr : int array;
  pat_col_idx : int array;
  fp : int;
  perm : int array; (* pivot position -> original row *)
  pinv : int array; (* original row -> pivot position *)
  sign : float; (* permutation parity *)
  (* CSC traversal of A: for column j, entries a_ptr.(j)..a_ptr.(j+1)-1
     give the pivot-space row and the CSR value index of each stamp *)
  a_ptr : int array;
  a_prow : int array;
  a_src : int array;
  (* U columns: strictly-above-diagonal pivot-space rows, ascending
     (ascending is topological because reach patterns are closed) *)
  u_ptr : int array;
  u_rows : int array;
  (* L columns: strictly-below-diagonal pivot-space rows, ascending *)
  l_ptr : int array;
  l_rows : int array;
}

type numeric = {
  sym : symbolic;
  u_vals : float array;
  l_vals : float array;
  udiag : float array;
  x : float array; (* dense scratch, zero between uses *)
  (* the pattern arrays last verified against [sym]: refactorising the
     same physical pattern again skips the structural comparison, which
     a pattern from a different [Sparse.Builder.build] would otherwise
     pay on every call *)
  mutable checked_row_ptr : int array;
  mutable checked_col_idx : int array;
}

exception Singular of int

let symbolic num = num.sym

let create_numeric sym =
  {
    sym;
    u_vals = Array.make (Array.length sym.u_rows) 0.0;
    l_vals = Array.make (Array.length sym.l_rows) 0.0;
    udiag = Array.make sym.n 0.0;
    x = Array.make sym.n 0.0;
    checked_row_ptr = sym.pat_row_ptr;
    checked_col_idx = sym.pat_col_idx;
  }

(* permutation parity by cycle decomposition *)
let parity perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  let sign = ref 1.0 in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let len = ref 0 in
      let i = ref s in
      while not seen.(!i) do
        seen.(!i) <- true;
        incr len;
        i := perm.(!i)
      done;
      if !len land 1 = 0 then sign := -. !sign
    end
  done;
  !sign

(* CSC view of [a]'s pattern: per-column (original row, CSR value
   index) pairs *)
let csc_of a =
  let n = Sparse.n a in
  let row_ptr = Sparse.row_ptr a and col_idx = Sparse.col_idx a in
  let nnz = Sparse.nnz a in
  let a_ptr = Array.make (n + 1) 0 in
  for p = 0 to nnz - 1 do
    a_ptr.(col_idx.(p) + 1) <- a_ptr.(col_idx.(p) + 1) + 1
  done;
  for j = 0 to n - 1 do
    a_ptr.(j + 1) <- a_ptr.(j + 1) + a_ptr.(j)
  done;
  let fill = Array.copy a_ptr in
  let a_row = Array.make nnz 0 in
  let a_src = Array.make nnz 0 in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = col_idx.(p) in
      a_row.(fill.(j)) <- i;
      a_src.(fill.(j)) <- p;
      fill.(j) <- fill.(j) + 1
    done
  done;
  (a_ptr, a_row, a_src)

let factorise a =
  let n = Sparse.n a in
  let vals = Sparse.values a in
  let a_ptr, a_row, a_src = csc_of a in
  let pinv = Array.make n (-1) in
  let perm = Array.make n (-1) in
  (* growing factors; L holds original rows until the permutation is
     complete *)
  let u_cols = Array.make n ([] : (int * float) list) in
  let l_cols = Array.make n ([] : (int * float) list) in
  let udiag = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  let visited = Array.make n (-1) in
  let topo = ref [] in
  (* depth-first reach of original row [i] through the columns of L
     factorised so far; reverse post-order = topological order *)
  let rec dfs j i =
    if visited.(i) <> j then begin
      visited.(i) <- j;
      let r = pinv.(i) in
      if r >= 0 then List.iter (fun (i2, _) -> dfs j i2) l_cols.(r);
      topo := i :: !topo
    end
  in
  for j = 0 to n - 1 do
    topo := [];
    let col_max = ref 0.0 in
    for p = a_ptr.(j) to a_ptr.(j + 1) - 1 do
      dfs j a_row.(p)
    done;
    for p = a_ptr.(j) to a_ptr.(j + 1) - 1 do
      let v = vals.(a_src.(p)) in
      x.(a_row.(p)) <- x.(a_row.(p)) +. v;
      let av = Float.abs v in
      if av > !col_max then col_max := av
    done;
    let order = !topo in
    (* sparse triangular solve L y = A(:,j) along the reach *)
    List.iter
      (fun i ->
        let r = pinv.(i) in
        if r >= 0 then begin
          let xi = x.(i) in
          if xi <> 0.0 then
            List.iter
              (fun (i2, lv) -> x.(i2) <- x.(i2) -. (xi *. lv))
              l_cols.(r)
        end)
      order;
    (* partial pivot among not-yet-pivotal rows of the pattern; ties
       break to the smallest original row, mirroring the dense scan *)
    let piv = ref (-1) and best = ref 0.0 in
    List.iter
      (fun i ->
        if pinv.(i) < 0 then begin
          let v = Float.abs x.(i) in
          if v > !best || (v = !best && (!piv < 0 || i < !piv)) then begin
            best := v;
            piv := i
          end
        end)
      order;
    if !piv < 0 || !best < Lu.pivot_threshold ~col_max:!col_max then begin
      List.iter (fun i -> x.(i) <- 0.0) order;
      raise (Singular j)
    end;
    let pr = !piv in
    pinv.(pr) <- j;
    perm.(j) <- pr;
    let pivot = x.(pr) in
    udiag.(j) <- pivot;
    let u = ref [] and l = ref [] in
    List.iter
      (fun i ->
        if i <> pr then begin
          let r = pinv.(i) in
          if r >= 0 && r < j then u := (r, x.(i)) :: !u
          else l := (i, x.(i) /. pivot) :: !l
        end;
        x.(i) <- 0.0)
      order;
    u_cols.(j) <- List.sort (fun (r1, _) (r2, _) -> compare r1 r2) !u;
    l_cols.(j) <- !l
  done;
  (* flatten; L rows remapped to pivot space now that pinv is total *)
  let l_sorted =
    Array.map
      (fun col ->
        List.sort
          (fun (r1, _) (r2, _) -> compare r1 r2)
          (List.map (fun (i, v) -> (pinv.(i), v)) col))
      l_cols
  in
  let flatten cols =
    let ptr = Array.make (n + 1) 0 in
    for j = 0 to n - 1 do
      ptr.(j + 1) <- ptr.(j) + List.length cols.(j)
    done;
    let rows = Array.make ptr.(n) 0 in
    let vs = Array.make ptr.(n) 0.0 in
    for j = 0 to n - 1 do
      List.iteri
        (fun k (r, v) ->
          rows.(ptr.(j) + k) <- r;
          vs.(ptr.(j) + k) <- v)
        cols.(j)
    done;
    (ptr, rows, vs)
  in
  let u_ptr, u_rows, u_vals = flatten u_cols in
  let l_ptr, l_rows, l_vals = flatten l_sorted in
  let a_prow = Array.map (fun i -> pinv.(i)) a_row in
  let sym =
    {
      n;
      nnz_a = Sparse.nnz a;
      pat_row_ptr = Sparse.row_ptr a;
      pat_col_idx = Sparse.col_idx a;
      fp = Sparse.fingerprint a;
      perm;
      pinv;
      sign = parity perm;
      a_ptr;
      a_prow;
      a_src;
      u_ptr;
      u_rows;
      l_ptr;
      l_rows;
    }
  in
  ( sym,
    {
      sym;
      u_vals;
      l_vals;
      udiag;
      x = Array.make n 0.0;
      checked_row_ptr = sym.pat_row_ptr;
      checked_col_idx = sym.pat_col_idx;
    } )

let pattern_matches sym a =
  sym.n = Sparse.n a
  && sym.nnz_a = Sparse.nnz a
  && (sym.pat_row_ptr == Sparse.row_ptr a || sym.pat_row_ptr = Sparse.row_ptr a)
  && (sym.pat_col_idx == Sparse.col_idx a || sym.pat_col_idx = Sparse.col_idx a)

let refactorise num a =
  let sym = num.sym in
  let row_ptr = Sparse.row_ptr a and col_idx = Sparse.col_idx a in
  if not (row_ptr == num.checked_row_ptr && col_idx == num.checked_col_idx)
  then begin
    if not (pattern_matches sym a) then
      invalid_arg "Sparse_lu.refactorise: pattern mismatch";
    num.checked_row_ptr <- row_ptr;
    num.checked_col_idx <- col_idx
  end;
  let n = sym.n in
  let vals = Sparse.values a in
  let x = num.x in
  let a_ptr = sym.a_ptr
  and a_prow = sym.a_prow
  and a_src = sym.a_src
  and u_ptr = sym.u_ptr
  and u_rows = sym.u_rows
  and l_ptr = sym.l_ptr
  and l_rows = sym.l_rows in
  let u_vals = num.u_vals and l_vals = num.l_vals in
  for j = 0 to n - 1 do
    let col_max = ref 0.0 in
    for p = a_ptr.(j) to a_ptr.(j + 1) - 1 do
      let v = Array.unsafe_get vals a_src.(p) in
      let r = a_prow.(p) in
      Array.unsafe_set x r (Array.unsafe_get x r +. v);
      let av = Float.abs v in
      if av > !col_max then col_max := av
    done;
    (* left-looking update along the frozen U pattern; ascending order
       is topological because the symbolic reach sets are closed *)
    for q = u_ptr.(j) to u_ptr.(j + 1) - 1 do
      let k = Array.unsafe_get u_rows q in
      let xk = Array.unsafe_get x k in
      Array.unsafe_set u_vals q xk;
      Array.unsafe_set x k 0.0;
      if xk <> 0.0 then
        for p = l_ptr.(k) to l_ptr.(k + 1) - 1 do
          let i = Array.unsafe_get l_rows p in
          Array.unsafe_set x i
            (Array.unsafe_get x i -. (xk *. Array.unsafe_get l_vals p))
        done
    done;
    let pivot = x.(j) in
    x.(j) <- 0.0;
    (* Lu.pivot_threshold's expression, inline: a call across modules
       would box its argument and result for every column *)
    if
      Float.abs pivot
      < Float.max Lu.pivot_abs_floor (Lu.pivot_rel_tol *. !col_max)
    then begin
      (* scrub so the workspace stays reusable after the caller's
         full-factorisation fallback *)
      for p = l_ptr.(j) to l_ptr.(j + 1) - 1 do
        x.(l_rows.(p)) <- 0.0
      done;
      raise (Singular j)
    end;
    num.udiag.(j) <- pivot;
    for p = l_ptr.(j) to l_ptr.(j + 1) - 1 do
      let i = Array.unsafe_get l_rows p in
      Array.unsafe_set l_vals p (Array.unsafe_get x i /. pivot);
      Array.unsafe_set x i 0.0
    done
  done

let solve_into num ~b ~x =
  let sym = num.sym in
  let n = sym.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Sparse_lu.solve_into: size mismatch";
  if b == x then invalid_arg "Sparse_lu.solve_into: b and x must be distinct";
  (* forward: L y = P b (unit diagonal), column-oriented *)
  for j = 0 to n - 1 do
    x.(j) <- b.(sym.perm.(j))
  done;
  for j = 0 to n - 1 do
    let xj = Array.unsafe_get x j in
    if xj <> 0.0 then
      for p = sym.l_ptr.(j) to sym.l_ptr.(j + 1) - 1 do
        let i = Array.unsafe_get sym.l_rows p in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (xj *. Array.unsafe_get num.l_vals p))
      done
  done;
  (* backward: U x = y, column-oriented *)
  for j = n - 1 downto 0 do
    let xj = Array.unsafe_get x j /. num.udiag.(j) in
    Array.unsafe_set x j xj;
    if xj <> 0.0 then
      for q = sym.u_ptr.(j) to sym.u_ptr.(j + 1) - 1 do
        let r = Array.unsafe_get sym.u_rows q in
        Array.unsafe_set x r
          (Array.unsafe_get x r -. (xj *. Array.unsafe_get num.u_vals q))
      done
  done

let solve num b =
  let x = Array.make num.sym.n 0.0 in
  solve_into num ~b ~x;
  x

let det num =
  let acc = ref num.sym.sign in
  Array.iter (fun d -> acc := !acc *. d) num.udiag;
  !acc

(* ---- shared symbolic registry ------------------------------------- *)

let cache : (int, symbolic) Hashtbl.t = Hashtbl.create 16
let cache_fifo : int Queue.t = Queue.create ()
let cache_mutex = Mutex.create ()
let cache_limit = 64
let cache_hits = ref 0
let cache_misses = ref 0

let find_symbolic a =
  Mutex.lock cache_mutex;
  let r =
    match Hashtbl.find_opt cache (Sparse.fingerprint a) with
    | Some sym when pattern_matches sym a ->
      incr cache_hits;
      Some sym
    | Some _ | None ->
      incr cache_misses;
      None
  in
  Mutex.unlock cache_mutex;
  r

(* caller holds [cache_mutex] *)
let add_locked sym =
  if not (Hashtbl.mem cache sym.fp) then begin
    if Queue.length cache_fifo >= cache_limit then
      Hashtbl.remove cache (Queue.pop cache_fifo);
    Hashtbl.replace cache sym.fp sym;
    Queue.push sym.fp cache_fifo
  end

let store_symbolic a sym =
  if not (pattern_matches sym a) then
    invalid_arg "Sparse_lu.store_symbolic: symbolic does not match matrix";
  Mutex.protect cache_mutex (fun () -> add_locked sym)

let find_or_factorise a ~factorise =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache (Sparse.fingerprint a) with
      | Some sym when pattern_matches sym a ->
        incr cache_hits;
        (sym, None)
      | Some _ | None ->
        incr cache_misses;
        let sym, num = factorise a in
        if not (pattern_matches sym a) then
          invalid_arg
            "Sparse_lu.find_or_factorise: symbolic does not match matrix";
        add_locked sym;
        (sym, Some num))

let cache_stats () =
  Mutex.lock cache_mutex;
  let r = (!cache_hits, !cache_misses) in
  Mutex.unlock cache_mutex;
  r

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Queue.clear cache_fifo;
  cache_hits := 0;
  cache_misses := 0;
  Mutex.unlock cache_mutex
