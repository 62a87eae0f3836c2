module Json = Repro_util.Json

let default_file = "run.journal"

type t = {
  path : string;
  run_id : string;
  oc : out_channel;
  mutex : Mutex.t;
}

let path t = t.path
let run_id t = t.run_id

let gen_run_id () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ-%d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec (Unix.getpid ())

let create ?run_id ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir default_file in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  let run_id = match run_id with Some id -> id | None -> gen_run_id () in
  { path; run_id; oc; mutex = Mutex.create () }

let close t =
  Mutex.lock t.mutex;
  (try close_out t.oc with Sys_error _ -> ());
  Mutex.unlock t.mutex

let line ~ts ~run name fields =
  Json.to_string
    (Json.Obj
       (("ts", Json.Num ts) :: ("run", Json.Str run)
       :: ("event", Json.Str name) :: fields))

(* one line = one event: a single [output_string] of the whole record
   under the journal mutex, flushed immediately so a killed run keeps
   everything it logged *)
let event t name fields =
  let line =
    line ~ts:(Unix.gettimeofday ()) ~run:t.run_id name fields ^ "\n"
  in
  Mutex.lock t.mutex;
  (try
     output_string t.oc line;
     flush t.oc
   with Sys_error _ -> ());
  Mutex.unlock t.mutex

(* every line that parses, in file order: a line torn by a killed
   writer is skipped, not fatal *)
let read path =
  match open_in_bin path with
  | exception Sys_error msg -> Error ("cannot read journal: " ^ msg)
  | ic ->
    let rec loop acc =
      match input_line ic with
      | line -> (
        match Json.of_string line with
        | Ok j -> loop (j :: acc)
        | Error _ -> loop acc)
      | exception End_of_file -> Ok (List.rev acc)
      | exception Sys_error msg -> Error ("cannot read journal: " ^ msg)
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> loop [])

(* ---- process-current journal ------------------------------------- *)

let current : t option Atomic.t = Atomic.make None
let set_current t = Atomic.set current (Some t)
let clear_current () = Atomic.set current None
let active () = Atomic.get current <> None
let with_current f = match Atomic.get current with None -> () | Some t -> f t

(* ---- typed events ------------------------------------------------- *)

let int n = Json.Num (float_of_int n)

let run_start t ~fingerprint fields =
  event t "run.start" (("fingerprint", Json.Str fingerprint) :: fields)

let run_finish t ~seconds fields =
  event t "run.finish" (("seconds", Json.Num seconds) :: fields)

let record_phase_start name =
  with_current (fun t -> event t "phase.start" [ ("phase", Json.Str name) ])

let record_phase_finish name ~seconds =
  with_current (fun t ->
      event t "phase.finish"
        [ ("phase", Json.Str name); ("seconds", Json.Num seconds) ])

let record_ga_generation ~label ~generation ~front_size ~spread ~hypervolume =
  with_current (fun t ->
      event t "ga.generation"
        [
          ("label", Json.Str label);
          ("generation", int generation);
          ("front_size", int front_size);
          ("spread", Json.Num spread);
          ("hypervolume", Json.Num hypervolume);
        ])

let record_evals ~label ~avoided ~paid =
  with_current (fun t ->
      event t "evals"
        [
          ("label", Json.Str label);
          ("avoided", int avoided);
          ("paid", int paid);
        ])

let record_warning ~key msg =
  with_current (fun t ->
      event t "warning" [ ("key", Json.Str key); ("message", Json.Str msg) ])
