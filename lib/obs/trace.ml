module Json = Repro_util.Json

type event = {
  name : string;
  ph : char; (* 'B' begin | 'E' end | 'i' instant | 'C' counter *)
  ts : float; (* microseconds since the trace epoch *)
  tid : int;
  seq : int;
  args : (string * string) list;
}

(* Per-domain sink: a domain only ever touches its own event list and
   span stack, so the common emit path contends on nothing shared
   except the global sequence counter (an atomic).  The sink mutex
   exists solely for the rare cross-domain readers ([start]'s reset and
   [export]). *)
type sink = {
  tid : int;
  mutex : Mutex.t;
  mutable events : event list; (* newest first *)
  mutable stack : int list; (* open span ids (seq of their 'B'), innermost first *)
}

let sinks_mutex = Mutex.create ()
let sinks : sink list ref = ref []
let enabled_flag = Atomic.make false
let gc_flag = Atomic.make false
let epoch = Atomic.make 0.0
let seq = Atomic.make 0
let trace_id = ref ""
let process_label = ref None

let sink_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          tid = (Domain.self () :> int);
          mutex = Mutex.create ();
          events = [];
          stack = [];
        }
      in
      Mutex.lock sinks_mutex;
      sinks := s :: !sinks;
      Mutex.unlock sinks_mutex;
      s)

let enabled () = Atomic.get enabled_flag
let gc_capture () = Atomic.get gc_flag
let set_gc_capture on = Atomic.set gc_flag on
let id () = !trace_id
let set_process_label label = process_label := Some label

let all_sinks () =
  Mutex.lock sinks_mutex;
  let all = !sinks in
  Mutex.unlock sinks_mutex;
  all

let emit_to s ph name args =
  let e =
    {
      name;
      ph;
      ts = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6;
      tid = s.tid;
      seq = Atomic.fetch_and_add seq 1;
      args;
    }
  in
  Mutex.lock s.mutex;
  s.events <- e :: s.events;
  Mutex.unlock s.mutex;
  e.seq

let emit ph name args =
  ignore (emit_to (Domain.DLS.get sink_key) ph name args)

let start ?(gc = false) () =
  List.iter
    (fun s ->
      Mutex.lock s.mutex;
      s.events <- [];
      s.stack <- [];
      Mutex.unlock s.mutex)
    (all_sinks ());
  Atomic.set seq 0;
  let now = Unix.gettimeofday () in
  Atomic.set epoch now;
  (* the id only names the trace (propagation, merged files); it never
     feeds any computation, so wall-clock + pid uniqueness is enough *)
  trace_id :=
    Printf.sprintf "%x-%d"
      (Int64.to_int (Int64.logand (Int64.bits_of_float now) 0xffffffffL))
      (Unix.getpid ());
  Atomic.set gc_flag gc;
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let instant ?(args = []) name = if enabled () then emit 'i' name args

let counter name value =
  if enabled () then emit 'C' name [ (name, string_of_int value) ]

let current_span () =
  let s = Domain.DLS.get sink_key in
  match s.stack with [] -> None | id :: _ -> Some id

(* GC deltas ride as 'E'-event args; word counts are integral floats so
   %.0f renders them losslessly and compactly.  [Gc.quick_stat]'s
   minor_words excludes the current domain's allocations since its last
   minor collection, so minor words come from the dedicated
   [Gc.minor_words] counter instead. *)
let gc_args (mw1, (g1 : Gc.stat)) (mw0, (g0 : Gc.stat)) =
  [
    ("gc.minor_w", Printf.sprintf "%.0f" (mw1 -. mw0));
    ("gc.major_w", Printf.sprintf "%.0f" (g1.major_words -. g0.major_words));
    ( "gc.promoted_w",
      Printf.sprintf "%.0f" (g1.promoted_words -. g0.promoted_words) );
    ("gc.minor_c", string_of_int (g1.minor_collections - g0.minor_collections));
    ("gc.major_c", string_of_int (g1.major_collections - g0.major_collections));
  ]

let gc_sample () = (Gc.minor_words (), Gc.quick_stat ())

let span ?(args = []) name f =
  (* [enabled] is sampled once: a span that emitted its 'B' always emits
     the matching 'E' (even if tracing stops mid-span), and a span that
     started disabled emits nothing, so exports stay balanced *)
  if not (enabled ()) then f ()
  else begin
    let s = Domain.DLS.get sink_key in
    let g0 = if gc_capture () then Some (gc_sample ()) else None in
    let id = emit_to s 'B' name args in
    s.stack <- id :: s.stack;
    Fun.protect
      ~finally:(fun () ->
        (match s.stack with _ :: rest -> s.stack <- rest | [] -> ());
        let gargs =
          match g0 with
          | Some g0 -> gc_args (gc_sample ()) g0
          | None -> []
        in
        ignore (emit_to s 'E' name gargs))
      f
  end

let events () =
  List.concat_map
    (fun s ->
      Mutex.lock s.mutex;
      let e = s.events in
      Mutex.unlock s.mutex;
      e)
    (all_sinks ())
  |> List.sort (fun a b -> compare a.seq b.seq)

let event_count () =
  List.fold_left
    (fun acc s ->
      Mutex.lock s.mutex;
      let n = List.length s.events in
      Mutex.unlock s.mutex;
      acc + n)
    0 (all_sinks ())

let int n = Json.Num (float_of_int n)

let event_json ~pid e =
  (* instants need a scope; "t" = thread-scoped tick mark *)
  let scope = if e.ph = 'i' then [ ("s", Json.Str "t") ] else [] in
  (* counter-series values must be JSON numbers for the viewer to draw
     the track; every other arg is an opaque string *)
  let arg_value v =
    if e.ph <> 'C' then Json.Str v
    else
      match float_of_string_opt v with
      | Some x -> Json.Num x
      | None -> Json.Str v
  in
  let args =
    match e.args with
    | [] -> []
    | args ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_value v)) args)) ]
  in
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str "hieropt");
       ("ph", Json.Str (String.make 1 e.ph));
       ("ts", Json.Num e.ts);
       ("pid", int pid);
       ("tid", int e.tid);
       (* not part of the trace_event spec (viewers ignore it): keeps
          span identity across export/parse so propagated parent ids
          stay resolvable in merged traces *)
       ("seq", int e.seq);
     ]
    @ scope @ args)

let process_name_json ~pid label =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", int pid);
      ("tid", int 0);
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

let write_chrome path ?meta events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",";
      Option.iter
        (fun m -> output_string oc ("\"meta\":" ^ Json.to_string m ^ ","))
        meta;
      output_string oc "\"traceEvents\":[";
      Seq.iteri
        (fun i j ->
          if i > 0 then output_char oc ',';
          output_char oc '\n';
          output_string oc (Json.to_string j))
        events;
      output_string oc "\n]}\n")

let export path =
  let evs = events () in
  let pid = Unix.getpid () in
  let label = !process_label in
  (* process metadata for the merge step: which process this is, and
     where its microsecond clock sits on the wall clock *)
  let meta =
    Json.Obj
      ([
         ("pid", int pid);
         ("epoch", Json.Num (Atomic.get epoch));
         ("trace", Json.Str !trace_id);
       ]
      @ Option.fold ~none:[] ~some:(fun l -> [ ("label", Json.Str l) ]) label)
  in
  write_chrome path ~meta
    (Seq.append
       (Option.to_seq (Option.map (process_name_json ~pid) label))
       (Seq.map (event_json ~pid) (List.to_seq evs)));
  List.length evs

let record ?label path ~on_export f =
  start ~gc:true ();
  Option.iter set_process_label label;
  Fun.protect
    ~finally:(fun () ->
      stop ();
      on_export
        (match export path with
        | n -> Ok n
        | exception Sys_error msg -> Error msg))
    (fun () -> span "run" f)
