module Json = Repro_util.Json

type process = {
  label : string option;
  pid : int;
  epoch : float; (* wall-clock seconds at this process's ts = 0 *)
  trace : string; (* trace id (the coordinator's id propagates) *)
  events : Event.t list;
}

(* ---- decoding a --trace export ------------------------------------ *)

(* traceEvents plus the process "meta" header, back into the typed form
   the analyses take.  Unknown or malformed events are skipped rather
   than fatal: a trace from a crashed process should still merge and
   profile. *)
let parse ~path body =
  let str name j = Result.to_option (Json.get_string name j) in
  let num name j = Result.to_option (Json.get_float name j) in
  let int ~default name j =
    int_of_float (Option.value ~default (num name j))
  in
  (* args come back as strings exactly as the tracer recorded them;
     counter values were emitted as JSON numbers, so re-render those
     losslessly *)
  let arg_string = function
    | Json.Str s -> s
    | Json.Num x -> Json.float_repr x
    | v -> Json.to_string v
  in
  let event e =
    match (str "name" e, str "ph" e) with
    | Some name, Some ph when String.length ph = 1 ->
      Some
        {
          Event.name;
          ph = ph.[0];
          ts = Option.value ~default:0.0 (num "ts" e);
          pid = int ~default:0.0 "pid" e;
          tid = int ~default:0.0 "tid" e;
          seq = int ~default:(-1.0) "seq" e;
          args =
            (match Json.member "args" e with
            | Some (Json.Obj kvs) ->
              List.map (fun (k, v) -> (k, arg_string v)) kvs
            | _ -> []);
        }
    | _ -> None
  in
  match Json.of_string body with
  | Error msg -> Error (Printf.sprintf "trace %s: invalid JSON: %s" path msg)
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.Arr evs) ->
      let meta = Option.value ~default:Json.Null (Json.member "meta" j) in
      Ok
        {
          label = str "label" meta;
          pid = int ~default:0.0 "pid" meta;
          epoch = Option.value ~default:0.0 (num "epoch" meta);
          trace = Option.value ~default:"" (str "trace" meta);
          events = List.filter_map event evs;
        }
    | _ -> Error (Printf.sprintf "trace %s: no traceEvents array" path))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> parse ~path body
  | exception Sys_error msg ->
    Error (Printf.sprintf "cannot read trace %s: %s" path msg)

(* Every process mints its own file-level id; participation in the
   coordinator's trace shows up as worker spans tagged with the
   propagated id.  A worker whose tagged spans all name a different
   trace heard from some other coordinator — almost certainly the wrong
   file. *)
let check_trace_id ~base ~path w =
  let tags =
    List.filter_map
      (fun (e : Event.t) ->
        if e.ph = 'B' then Event.arg "trace" e.args else None)
      w.events
  in
  if base.trace <> "" && tags <> [] && not (List.mem base.trace tags) then
    Error
      (Printf.sprintf
         "no span in %s carries the coordinator's trace id %s — is it from \
          this run? (merging anyway)"
         path base.trace)
  else Ok ()

(* ---- merging ------------------------------------------------------ *)

(* NTP-style offset from one request/response envelope: all four stamps
   are wall-clock seconds; [t_send]/[t_reply_recv] on the local clock,
   [t_recv]/[t_reply_sent] on the remote one.  Assuming symmetric
   network delay, the remote clock leads the local one by the mean of
   the two one-way discrepancies. *)
let offset ~t_send ~t_recv ~t_reply_sent ~t_reply_recv =
  ((t_recv -. t_send) +. (t_reply_sent -. t_reply_recv)) /. 2.0

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* per-endpoint median clock delta from the coordinator's dist.clock
   instant events (one per remote round trip) *)
let endpoint_offsets events =
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      if e.name = "dist.clock" && e.ph = 'i' then
        match (Event.arg "endpoint" e.args, Event.arg "delta_s" e.args) with
        | Some ep, Some d -> (
          match float_of_string_opt d with
          | Some d -> (
            match Hashtbl.find_opt tbl ep with
            | Some l -> l := d :: !l
            | None -> Hashtbl.add tbl ep (ref [ d ]))
          | None -> ())
        | _ -> ())
    events;
  Hashtbl.fold (fun ep l acc -> (ep, median !l) :: acc) tbl []
  |> List.sort compare

let port_of s =
  match String.rindex_opt s ':' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* A worker only knows its own port ("worker:9401"); the coordinator
   keys offsets by the endpoint it dialled ("127.0.0.1:9401").  Match
   on the port suffix; an unmatched worker gets offset 0 (same host,
   same clock — the common case). *)
let worker_offset ~endpoints w =
  match w.label with
  | None -> 0.0
  | Some label -> (
    let port = port_of label in
    match
      List.find_opt (fun (ep, _) -> port_of ep = port) endpoints
    with
    | Some (_, d) -> d
    | None -> 0.0)

(* Merge worker traces onto the coordinator's timeline.  Workers get
   deterministic fresh pids (base + 1 + index) so same-host pid reuse
   can never collide; their timestamps move by the epoch difference
   minus the estimated clock offset.  Every process's own metadata
   events are dropped — the coordinator's too — because the returned
   pid → label table names each process exactly once. *)
let merge ~base ~workers =
  let endpoints = endpoint_offsets base.events in
  let labels =
    ref [ (base.pid, Option.value ~default:"coordinator" base.label) ]
  in
  let merged =
    List.concat
      (List.filter_map
         (fun (e : Event.t) ->
           if e.ph = 'M' then None else Some { e with pid = base.pid })
         base.events
      :: List.mapi
           (fun i w ->
             let pid = base.pid + 1 + i in
             labels :=
               ( pid,
                 Option.value ~default:(Printf.sprintf "worker%d" (i + 1))
                   w.label )
               :: !labels;
             let delta = worker_offset ~endpoints w in
             let shift = (w.epoch -. delta -. base.epoch) *. 1e6 in
             List.filter_map
               (fun (e : Event.t) ->
                 if e.ph = 'M' then None
                 else Some { e with pid; ts = e.ts +. shift })
               w.events)
           workers)
  in
  (merged, List.rev !labels)

(* Sanity checks on a merged trace: balanced begin/ends everywhere, no
   remote span referencing a parent id the coordinator never emitted,
   every remote child temporally contained in its parent (within
   [slack_us], absorbing clock-estimate error), and — when there are
   remote spans at all — at least one of them linked to a coordinator
   parent, so a run whose trace propagation broke does not pass. *)
let validate ?(slack_us = 50_000.0) ~coordinator_pid events =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Event.unbalanced events in
  if n > 0 then err "%d unbalanced begin/end events" n;
  let coord_spans : (int, Event.span) Hashtbl.t = Hashtbl.create 64 in
  let all = Event.flatten (Event.spans events) in
  List.iter
    (fun (s : Event.span) ->
      if s.pid = coordinator_pid then Hashtbl.replace coord_spans s.id s)
    all;
  let remote =
    List.filter (fun (s : Event.span) -> s.pid <> coordinator_pid) all
  in
  let linked (s : Event.span) = Event.arg "parent" s.args <> None in
  if remote <> [] && not (List.exists linked remote) then
    err "no worker span carries a coordinator parent id";
  List.iter
    (fun (s : Event.span) ->
      match Event.arg "parent" s.args with
      | None -> ()
      | Some p -> (
        match int_of_string_opt p with
        | None -> err "span %s: unparseable parent id %S" s.name p
        | Some p -> (
          match Hashtbl.find_opt coord_spans p with
          | None -> err "span %s: orphan parent id %d" s.name p
          | Some parent ->
            if s.t0 < parent.t0 -. slack_us || s.t1 > parent.t1 +. slack_us
            then
              err "span %s [%.0f,%.0f] escapes parent %s [%.0f,%.0f]" s.name
                s.t0 s.t1 parent.name parent.t0 parent.t1)))
    remote;
  List.rev !errors

let export ~path ?(labels = []) events =
  let sorted =
    List.sort
      (fun (a : Event.t) (b : Event.t) ->
        compare (a.ts, a.pid, a.seq) (b.ts, b.pid, b.seq))
      events
  in
  let line (e : Event.t) =
    Repro_obs.Trace.event_json ~pid:e.pid
      { name = e.name; ph = e.ph; ts = e.ts; tid = e.tid; seq = e.seq;
        args = e.args }
  in
  Repro_obs.Trace.write_chrome path
    (Seq.append
       (Seq.map
          (fun (pid, label) -> Repro_obs.Trace.process_name_json ~pid label)
          (List.to_seq labels))
       (Seq.map line (List.to_seq sorted)));
  List.length events
