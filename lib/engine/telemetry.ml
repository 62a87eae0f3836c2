(* Counters are sharded per domain: each domain owns a private shard
   (its own mutex + tables, allocated by that domain so shards land on
   distinct cache lines) and the hot [incr]/[add_time] path locks only
   the uncontended domain-local mutex.  Readers ([counter], [snapshot],
   …) lock every shard — in registration order, so concurrent readers
   cannot deadlock — and merge by summing, which keeps snapshots
   consistent point-in-time views while writers keep reporting. *)

type shard = {
  mutex : Mutex.t;
  counters : (string, int) Hashtbl.t;
  timers : (string, float) Hashtbl.t;
}

let shards_mutex = Mutex.create ()

(* newest-first; [all_shards] reverses so multi-shard lock order is the
   stable registration order *)
let shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          mutex = Mutex.create ();
          counters = Hashtbl.create 32;
          timers = Hashtbl.create 16;
        }
      in
      Mutex.lock shards_mutex;
      shards := s :: !shards;
      Mutex.unlock shards_mutex;
      s)

let all_shards () =
  Mutex.lock shards_mutex;
  let all = List.rev !shards in
  Mutex.unlock shards_mutex;
  all

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

(* lock ALL shards, run [f] over the list, unlock in reverse.  Lock
   acquisition follows registration order everywhere, so two concurrent
   multi-shard readers never deadlock. *)
let locked_all f =
  let all = all_shards () in
  List.iter (fun s -> Mutex.lock s.mutex) all;
  Fun.protect
    ~finally:(fun () -> List.iter (fun s -> Mutex.unlock s.mutex) (List.rev all))
    (fun () -> f all)

let incr ?(by = 1) name =
  let s = Domain.DLS.get shard_key in
  locked s (fun () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt s.counters name) in
      Hashtbl.replace s.counters name (cur + by))

let counter name =
  locked_all (fun all ->
      List.fold_left
        (fun acc s ->
          acc + Option.value ~default:0 (Hashtbl.find_opt s.counters name))
        0 all)

let add_time name seconds =
  let s = Domain.DLS.get shard_key in
  locked s (fun () ->
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt s.timers name) in
      Hashtbl.replace s.timers name (cur +. seconds))

let timer name =
  locked_all (fun all ->
      List.fold_left
        (fun acc s ->
          acc +. Option.value ~default:0.0 (Hashtbl.find_opt s.timers name))
        0.0 all)

let time name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> add_time name (Unix.gettimeofday () -. t0))
    f

let reset () =
  locked_all
    (List.iter (fun s ->
         Hashtbl.reset s.counters;
         Hashtbl.reset s.timers))

(* separate from the shard mutexes so stderr I/O never blocks counter
   updates from other domains *)
let warn_mutex = Mutex.create ()

let warn ~key fmt =
  Printf.ksprintf
    (fun msg ->
      incr key;
      Repro_obs.Journal.record_warning ~key msg;
      (* the whole line is formatted first and written with a single
         [output_string] under a mutex, so warnings racing in from
         several domains never interleave mid-line *)
      let line = Printf.sprintf "WARNING [%s]: %s\n" key msg in
      Mutex.lock warn_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock warn_mutex)
        (fun () ->
          output_string stderr line;
          flush stderr))
    fmt

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* every shard locked for the duration of the merge, so the snapshot is
   a consistent point-in-time view: sums never catch an update in one
   shard but not another *)
let split_snapshot () =
  locked_all (fun all ->
      let counters = Hashtbl.create 32 and timers = Hashtbl.create 16 in
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun k v ->
              Hashtbl.replace counters k
                (v + Option.value ~default:0 (Hashtbl.find_opt counters k)))
            s.counters;
          Hashtbl.iter
            (fun k v ->
              Hashtbl.replace timers k
                (v +. Option.value ~default:0.0 (Hashtbl.find_opt timers k)))
            s.timers)
        all;
      (sorted counters, sorted timers))

let snapshot () =
  let counters, timers = split_snapshot () in
  List.merge
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun (k, v) -> (k, `Counter v)) counters)
    (List.map (fun (k, v) -> (k, `Timer v)) timers)

let line () =
  let counters, timers = split_snapshot () in
  let parts =
    List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters
    @ List.map (fun (k, v) -> Printf.sprintf "%s=%.2fs" k v) timers
  in
  match parts with
  | [] -> "telemetry: (empty)"
  | _ -> "telemetry: " ^ String.concat " " parts

let report () =
  let counters, timers = split_snapshot () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "telemetry report\n";
  if counters = [] && timers = [] then Buffer.add_string buf "  (empty)\n"
  else begin
    List.iter
      (fun (k, v) -> Printf.ksprintf (Buffer.add_string buf) "  %-32s %12d\n" k v)
      counters;
    List.iter
      (fun (k, v) ->
        Printf.ksprintf (Buffer.add_string buf) "  %-32s %10.3f s\n" k v)
      timers
  end;
  Buffer.contents buf
