(* Spans the bench records around its own calls into the program: name,
   start, end and the span that was open when it started.  They stay in
   memory until the run ends, then become [Repro_prof.Event] values so
   the program's own analysis computes self time, and a Chrome
   trace_event file.  A disabled recorder records nothing, so untraced
   runs pay one branch per call. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  tid : int;  (** recording domain *)
  t0 : float;  (** seconds, [Unix.gettimeofday] *)
  mutable t1 : float;  (** [nan] while open *)
}

type t = {
  enabled : bool;
  mutex : Mutex.t;
  mutable next_id : int;
  by_id : (int, span) Hashtbl.t;
  open_ : (int, int list) Hashtbl.t;  (** per domain, innermost first *)
}

let create ~enabled () =
  {
    enabled;
    mutex = Mutex.create ();
    next_id = 0;
    by_id = Hashtbl.create 1024;
    open_ = Hashtbl.create 4;
  }

let domain ()= (Domain.self () :> int)

let enter t name =
  if not t.enabled then -1
  else
    Mutex.protect t.mutex @@ fun () ->
    let tid = domain () in
    let stack = Option.value ~default:[] (Hashtbl.find_opt t.open_ tid) in
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match stack with p :: _ -> Some p | [] -> None in
    Hashtbl.replace t.by_id id
      { id; name; parent; tid; t0 = Unix.gettimeofday (); t1 = Float.nan };
    Hashtbl.replace t.open_ tid (id :: stack);
    id

let leave t id =
  if id >= 0 then
    Mutex.protect t.mutex @@ fun () ->
    let tid = domain () in
    match Hashtbl.find_opt t.open_ tid with
    | Some (top :: rest) when top = id ->
      (Hashtbl.find t.by_id id).t1 <- Unix.gettimeofday ();
      Hashtbl.replace t.open_ tid rest
    | _ -> invalid_arg "Spans.leave: not the innermost open span"

let with_span t name f =
  let id = enter t name in
  Fun.protect ~finally:(fun () -> leave t id) f

let by_start a b = compare (a.t0, a.id) (b.t0, b.id)

let spans t =
  Mutex.protect t.mutex @@ fun () ->
  Hashtbl.fold (fun _ s acc -> s :: acc) t.by_id [] |> List.sort by_start

let duration s = s.t1 -. s.t0

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (spans t)
  |> Array.of_list

(* Begin/end events in depth-first order, which is also the order
   [Repro_prof.Event.spans] needs among equal timestamps: a parent
   begins before its first child and ends after its last. *)
let events ?(pid = Unix.getpid ()) t =
  let all = spans t in
  if List.exists (fun s -> Float.is_nan s.t1) all then
    invalid_arg "Spans.events: a span is still open";
  let base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter (fun p -> Hashtbl.add children p s) s.parent)
    all;
  let seq = ref 0 in
  let out = ref [] in
  let emit s ph ts =
    out :=
      {
        Repro_prof.Event.name = s.name;
        ph;
        ts = (ts -. base) *. 1e6;
        pid;
        tid = s.tid;
        seq = !seq;
        args = [];
      }
      :: !out;
    incr seq
  in
  let rec walk s =
    emit s 'B' s.t0;
    List.iter walk (List.sort by_start (Hashtbl.find_all children s.id));
    emit s 'E' s.t1
  in
  List.iter walk (List.filter (fun s -> s.parent = None) all);
  List.rev !out

let self_time t =
  Repro_prof.Analysis.self_time (Repro_prof.Event.spans (events t))

let chrome_json t =
  let module J = Repro_serve.Json in
  let event (e : Repro_prof.Event.t) =
    J.Obj
      [
        ("name", J.Str e.name);
        ("ph", J.Str (String.make 1 e.ph));
        ("ts", J.Num e.ts);
        ("pid", J.Num (float_of_int e.pid));
        ("tid", J.Num (float_of_int e.tid));
      ]
  in
  J.Obj
    [
      ("traceEvents", J.Arr (List.map event (events t)));
      ("displayTimeUnit", J.Str "ms");
    ]
