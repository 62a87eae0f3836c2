(* splitmix64 finaliser, used to mix key components into one hash *)
let mix64 h k =
  let open Int64 in
  let z = add h (mul k 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Canonical bit pattern: all NaNs collapse to one payload and -0.0 to
   +0.0, so semantically equal vectors always share a key. *)
let canonical_bits v =
  if Float.is_nan v then Int64.bits_of_float Float.nan
  else if v = 0.0 then 0L
  else Int64.bits_of_float v

type key = {
  kind : string;
  sample : int; (* min_int encodes "no process-sample id" *)
  bits : int64 array;
  h : int;
}

let no_sample = min_int

let key ?(sample = no_sample) ~kind x =
  let bits = Array.map canonical_bits x in
  let h = ref (mix64 0L (Int64.of_int (Hashtbl.hash kind))) in
  h := mix64 !h (Int64.of_int sample);
  Array.iter (fun b -> h := mix64 !h b) bits;
  { kind; sample; bits; h = Int64.to_int !h land max_int }

let key_kind k = k.kind
let key_sample k = if k.sample = no_sample then None else Some k.sample

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.h = b.h && a.sample = b.sample && String.equal a.kind b.kind
    && a.bits = b.bits

  let hash k = k.h
end)

type t = {
  capacity : int;
  table : float array Tbl.t;
  order : key Queue.t; (* insertion order, for FIFO eviction *)
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 200_000) () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Tbl.create 1024;
    order = Queue.create ();
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t k =
  locked t (fun () ->
      match Tbl.find_opt t.table k with
      | Some v ->
        t.hits <- t.hits + 1;
        Some (Array.copy v)
      | None ->
        t.misses <- t.misses + 1;
        None)

let store t k v =
  locked t (fun () ->
      if Tbl.mem t.table k then Tbl.replace t.table k (Array.copy v)
      else begin
        while Tbl.length t.table >= t.capacity do
          match Queue.take_opt t.order with
          | None -> Tbl.reset t.table (* unreachable: order covers table *)
          | Some oldest ->
            if Tbl.mem t.table oldest then begin
              Tbl.remove t.table oldest;
              t.evictions <- t.evictions + 1
            end
        done;
        Tbl.replace t.table k (Array.copy v);
        Queue.push k t.order
      end)

let find_or_compute t k f =
  match find t k with
  | Some v -> v
  | None ->
    let v = f () in
    store t k v;
    v

let length t = locked t (fun () -> Tbl.length t.table)
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_counters t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

let stats_line t =
  locked t (fun () ->
      Printf.sprintf "cache: %d entries, %d hits / %d misses%s"
        (Tbl.length t.table) t.hits t.misses
        (if t.evictions > 0 then Printf.sprintf ", %d evicted" t.evictions
         else ""))

(* ---- persistence ------------------------------------------------- *)
(* Text format, one entry per line:
     kind <TAB> sample <TAB> b0,b1,... <TAB> v0,v1,...
   with key bits as hex int64 and values as lossless %h floats. *)

let magic = "hieropt-eval-cache 1"

let entry_to_line k v =
  let bits =
    String.concat ","
      (Array.to_list (Array.map (Printf.sprintf "%Lx") k.bits))
  in
  let vals =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v))
  in
  Printf.sprintf "%s\t%d\t%s\t%s" k.kind k.sample bits vals

let save t path =
  let tmp = path ^ ".tmp" in
  locked t (fun () ->
      let oc = open_out tmp in
      (try
         output_string oc (magic ^ "\n");
         Queue.iter
           (fun k ->
             match Tbl.find_opt t.table k with
             | None -> ()
             | Some v ->
               output_string oc (entry_to_line k v);
               output_char oc '\n')
           t.order;
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path)

let parse_line line =
  match String.split_on_char '\t' line with
  | [ kind; sample; bits; vals ] -> (
    try
      let sample = int_of_string sample in
      let parse_list f s =
        if s = "" then [||]
        else Array.of_list (List.map f (String.split_on_char ',' s))
      in
      let bits =
        parse_list (fun s -> Scanf.sscanf s "%Lx%!" Fun.id) bits
      in
      let vals = parse_list float_of_string vals in
      let h = ref (mix64 0L (Int64.of_int (Hashtbl.hash kind))) in
      h := mix64 !h (Int64.of_int sample);
      Array.iter (fun b -> h := mix64 !h b) bits;
      Some ({ kind; sample; bits; h = Int64.to_int !h land max_int }, vals)
    with _ -> None)
  | _ -> None

(* Only newline-terminated lines count: a file cut mid-line (a crash
   outside [save]'s tmp + rename, a copy interrupted) would otherwise
   parse its last line's cut-short value as a different float under the
   right key. *)
let load ?capacity path =
  let t = create ?capacity () in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let complete =
    match String.rindex_opt text '\n' with
    | None -> []
    | Some last -> String.split_on_char '\n' (String.sub text 0 last)
  in
  (match complete with
  | header :: lines when header = magic ->
    List.iter
      (fun line ->
        match parse_line line with
        | Some (k, v) -> store t k v
        | None -> () (* skip malformed lines *))
      lines
  | [] -> failwith ("Cache.load: empty cache file: " ^ path)
  | _ -> failwith ("Cache.load: not a cache file: " ^ path));
  reset_counters t;
  t

let load_if_exists ?capacity path =
  if Sys.file_exists path then try Some (load ?capacity path) with _ -> None
  else None
