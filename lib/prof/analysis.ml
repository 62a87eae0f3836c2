type row = {
  name : string;
  count : int;
  total_us : float;
  self_us : float;
  gc_minor_total : float; (* minor words allocated, incl. children *)
  gc_minor_self : float;
  gc_major_total : float;
  gc_minor_cols : int;
  gc_major_cols : int;
}

let child_sum f s =
  List.fold_left (fun acc c -> acc +. f c) 0.0 s.Event.children

(* self = total − direct children; clamped at 0 so clock jitter (or a
   child whose GC delta exceeds the parent's due to another domain's
   collection) never produces negative attribution *)
let self_dur s = Float.max 0.0 (Event.dur s -. child_sum Event.dur s)

let self_gc s key =
  Float.max 0.0
    (Event.gc_field s key -. child_sum (fun c -> Event.gc_field c key) s)

let self_time roots =
  let tbl : (string, row) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let r =
        match Hashtbl.find_opt tbl s.Event.name with
        | Some r -> r
        | None ->
          {
            name = s.Event.name;
            count = 0;
            total_us = 0.0;
            self_us = 0.0;
            gc_minor_total = 0.0;
            gc_minor_self = 0.0;
            gc_major_total = 0.0;
            gc_minor_cols = 0;
            gc_major_cols = 0;
          }
      in
      Hashtbl.replace tbl s.Event.name
        {
          r with
          count = r.count + 1;
          total_us = r.total_us +. Event.dur s;
          self_us = r.self_us +. self_dur s;
          gc_minor_total = r.gc_minor_total +. Event.gc_field s "gc.minor_w";
          gc_minor_self = r.gc_minor_self +. self_gc s "gc.minor_w";
          gc_major_total = r.gc_major_total +. Event.gc_field s "gc.major_w";
          gc_minor_cols =
            r.gc_minor_cols + int_of_float (Event.gc_field s "gc.minor_c");
          gc_major_cols =
            r.gc_major_cols + int_of_float (Event.gc_field s "gc.major_c");
        })
    (Event.flatten roots);
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare (b.self_us, b.name) (a.self_us, a.name))

let total_self rows = List.fold_left (fun acc r -> acc +. r.self_us) 0.0 rows

let slowest roots =
  List.stable_sort
    (fun a b -> compare (Event.dur b) (Event.dur a))
    (Event.flatten roots)

let default_busy name = name = "pool.chunk" || name = "pool.serial"

let find_span pred roots =
  let rec first = function
    | [] -> None
    | s :: rest -> (
      if pred s.Event.name then Some s
      else
        match first s.Event.children with
        | Some _ as r -> r
        | None -> first rest)
  in
  first roots

(* Per-domain busy fraction inside [t0, t1]: the time each tid spends
   inside "busy" spans (pool work by default), clipped to the window.
   Busy spans of one tid nest, so only the outermost matching span per
   tid/interval is counted (a pool.serial inside a pool.chunk would
   otherwise double-count). *)
let utilization ?(busy = default_busy) roots ~t0 ~t1 =
  let window = t1 -. t0 in
  if window <= 0.0 then []
  else begin
    (* keyed (pid, tid): in a merged trace every process has a tid 0,
       and mixing their busy time would fabricate utilization *)
    let acc : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
    let doms : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
    let rec walk s =
      let key = (s.Event.pid, s.Event.tid) in
      Hashtbl.replace doms key ();
      if busy s.Event.name then begin
        let overlap =
          Float.max 0.0 (Float.min t1 s.Event.t1 -. Float.max t0 s.Event.t0)
        in
        Hashtbl.replace acc key
          (overlap +. Option.value ~default:0.0 (Hashtbl.find_opt acc key))
        (* stop: nested busy spans are already covered *)
      end
      else List.iter walk s.Event.children
    in
    List.iter walk roots;
    Hashtbl.fold (fun key () acc' -> key :: acc') doms []
    |> List.sort compare
    |> List.map (fun key ->
           ( key,
             Option.value ~default:0.0 (Hashtbl.find_opt acc key) /. window ))
  end

(* flamegraph.pl-compatible folded stacks: "frame;frame;frame value"
   with self-time microseconds as the value, aggregated per path *)
let folded ?(labels = []) roots =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let root_frame s =
    let plabel =
      match List.assoc_opt s.Event.pid labels with
      | Some l -> l
      | None -> Printf.sprintf "pid%d" s.Event.pid
    in
    Printf.sprintf "%s/t%d" plabel s.Event.tid
  in
  let add path v =
    match Hashtbl.find_opt tbl path with
    | Some cur -> Hashtbl.replace tbl path (cur +. v)
    | None ->
      Hashtbl.add tbl path v;
      order := path :: !order
  in
  let rec walk prefix s =
    let path = prefix ^ ";" ^ s.Event.name in
    add path (self_dur s);
    List.iter (walk path) s.Event.children
  in
  List.iter (fun s -> walk (root_frame s) s) roots;
  let buf = Buffer.create 1024 in
  List.iter
    (fun path ->
      let v = int_of_float (Float.round (Hashtbl.find tbl path)) in
      if v > 0 then Printf.ksprintf (Buffer.add_string buf) "%s %d\n" path v)
    (List.rev !order);
  Buffer.contents buf
