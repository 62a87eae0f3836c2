exception Interrupted

type t = {
  path : string;
  every : int;
  snap : Snapshot.t;
}

let create ?(every = 1) ~fingerprint path =
  if every < 1 then invalid_arg "Checkpoint.create: every must be >= 1";
  { path; every; snap = Snapshot.create ~fingerprint }

let resume ?(every = 1) ~fingerprint path =
  if every < 1 then invalid_arg "Checkpoint.resume: every must be >= 1";
  match Snapshot.load ~fingerprint path with
  | Ok snap -> Ok { path; every; snap }
  | Error e -> Error (Snapshot.load_error_to_string e)

let path t = t.path
let every t = t.every
let snapshot t = t.snap
let flush t =
  Snapshot.save t.snap t.path;
  Repro_obs.Journal.record_checkpoint ~action:"flush" ~path:t.path

(* ---- interruption ------------------------------------------------ *)

let interrupt_flag = Atomic.make false
let request_interrupt () = Atomic.set interrupt_flag true
let interrupted () = Atomic.get interrupt_flag
let clear_interrupt () = Atomic.set interrupt_flag false

let install_signal_handler () =
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         request_interrupt ();
         (* a second Ctrl-C kills the process the normal way *)
         Sys.set_signal Sys.sigint Sys.Signal_default))

let guard = function
  | None -> ()
  | Some t ->
    if interrupted () then begin
      flush t;
      raise Interrupted
    end

(* ---- resumable bulk evaluation ----------------------------------- *)

let resumable_map ?pool ?chunk t ~key ~encode ~decode f items =
  let n = Array.length items in
  let stored =
    match Snapshot.get_rows t.snap key with
    | Some rows when Array.length rows <= n -> (
      (* a row that fails to decode invalidates the whole prefix: better
         a cold restart than a silently wrong tail *)
      try Array.map decode rows with _ -> [||])
    | _ -> [||]
  in
  let out = Array.make n None in
  Array.iteri (fun i v -> out.(i) <- Some v) stored;
  let i = ref (Array.length stored) in
  while !i < n do
    guard (Some t);
    let stop = min n (!i + t.every) in
    let sub = Array.sub items !i (stop - !i) in
    let fresh = Parmap.map ?pool ?chunk f sub in
    Array.iteri (fun d r -> out.(!i + d) <- Some r) fresh;
    i := stop;
    Snapshot.set_rows t.snap key
      (Array.map (fun o -> encode (Option.get o)) (Array.sub out 0 !i));
    flush t
  done;
  Array.map Option.get out
