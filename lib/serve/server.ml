module Json = Repro_util.Json
module Telemetry = Repro_engine.Telemetry

(* one accepted socket *)
type conn = {
  fd : Unix.file_descr;
  machine : Conn.t;
  mutable last_activity : float;
  mutable read_closed : bool;  (* peer sent EOF; output may still drain *)
}

type t = {
  api : Api.t;
  listener : Unix.file_descr;
  bound_port : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  rbuf : Bytes.t;
  request_timeout : float;
  stopping : bool Atomic.t;
  stop_called : bool Atomic.t;
  drain_deadline : float Atomic.t;  (* meaningful once [stopping] *)
  mutable domain : unit Domain.t option;
}

let port t = t.bound_port
let error_body msg = Json.to_string (Json.Obj [ ("error", Json.Str msg) ])
let safe_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* above this many queued output bytes a connection stops being read:
   a slow consumer pipelining requests cannot balloon our buffers *)
let high_watermark = 256 * 1024

let close_conn t c =
  Hashtbl.remove t.conns c.fd;
  safe_close c.fd

(* opportunistic non-blocking drain of the output buffer; closes the
   connection once a [Connection: close] response is fully flushed *)
let try_write t c =
  let buf, off, len = Conn.output c.machine in
  if len > 0 then begin
    match Unix.write c.fd buf off len with
    | n ->
      Conn.output_consumed c.machine n;
      c.last_activity <- Unix.gettimeofday ();
      if Conn.output_pending c.machine = 0 && Conn.close_after_flush c.machine
      then close_conn t c
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> close_conn t c
  end
  else if Conn.close_after_flush c.machine then close_conn t c

let handle_events t c events =
  let rec go = function
    | [] -> ()
    | Conn.Protocol_error err :: _ -> (
      (* answer the protocol error, then close; anything pipelined
         behind it is dropped *)
      match err with
      | `Bad_request msg ->
        Conn.push_response ~keep_alive:false ~status:400
          ~body:(error_body msg) c.machine
      | `Too_large msg ->
        Conn.push_response ~keep_alive:false ~status:413
          ~body:(error_body msg) c.machine
      | `Eof | `Timeout -> Conn.set_close_after_flush c.machine)
    | Conn.Request req :: rest ->
      if Conn.close_after_flush c.machine then
        (* a [Connection: close] response is already queued; requests
           pipelined behind it get no answer *)
        ()
      else begin
        (* a draining server answers what it already received, then
           closes instead of waiting for the next request *)
        let keep_alive = Http.keep_alive req && not (Atomic.get t.stopping) in
        (match Api.handle t.api req with
        | status, headers, body ->
          Conn.push_response ~headers ~keep_alive ~status ~body c.machine
        | exception exn ->
          Telemetry.incr "serve.connection_errors";
          Telemetry.warn ~key:"serve.connection" "request handler: %s"
            (Printexc.to_string exn);
          Conn.push_response ~keep_alive:false ~status:500
            ~body:(error_body "internal error") c.machine);
        go rest
      end
  in
  go events

let handle_readable t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 ->
    c.read_closed <- true;
    if Conn.output_pending c.machine > 0 then
      (* half-closed client still waiting for its responses *)
      Conn.set_close_after_flush c.machine
    else close_conn t c
  | n ->
    c.last_activity <- Unix.gettimeofday ();
    handle_events t c (Conn.feed c.machine t.rbuf 0 n);
    try_write t c
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> close_conn t c

let rec accept_ready t =
  match Unix.accept ~cloexec:true t.listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    Telemetry.incr "serve.connections";
    Hashtbl.replace t.conns fd
      {
        fd;
        machine = Conn.create ();
        last_activity = Unix.gettimeofday ();
        read_closed = false;
      };
    accept_ready t
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
          | Unix.EINTR ),
          _,
          _ ) ->
    ()
  | exception Unix.Unix_error _ -> ()

let drain_wake t =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r scratch 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* a loop that somehow holds a dead descriptor (select → EBADF)
   must shed it rather than spin *)
let sweep_dead t =
  let dead =
    Hashtbl.fold
      (fun _ c acc ->
        match Unix.fstat c.fd with
        | _ -> acc
        | exception Unix.Unix_error _ -> c :: acc)
      t.conns []
  in
  List.iter (close_conn t) dead

let run_loop t =
  let listener_open = ref true in
  let finished = ref false in
  while not !finished do
    let now = Unix.gettimeofday () in
    let stopping = Atomic.get t.stopping in
    if stopping && !listener_open then begin
      safe_close t.listener;
      listener_open := false
    end;
    if stopping then begin
      (* idle keep-alive connections have nothing owed to them *)
      let idle =
        Hashtbl.fold
          (fun _ c acc ->
            if
              Conn.output_pending c.machine = 0
              && not (Conn.mid_request c.machine)
            then c :: acc
            else acc)
          t.conns []
      in
      List.iter (close_conn t) idle
    end;
    if stopping && Hashtbl.length t.conns = 0 then finished := true
    else begin
      let deadline =
        if stopping then Atomic.get t.drain_deadline else infinity
      in
      if stopping && now >= deadline then begin
        Telemetry.incr ~by:(Hashtbl.length t.conns) "serve.forced_closes";
        Hashtbl.iter
          (fun _ c ->
            (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            safe_close c.fd)
          t.conns;
        Hashtbl.reset t.conns;
        finished := true
      end
      else begin
        let reads =
          ref (t.wake_r :: (if !listener_open then [ t.listener ] else []))
        in
        let writes = ref [] in
        let next_tick = ref (min deadline (now +. 0.5)) in
        Hashtbl.iter
          (fun fd c ->
            if
              (not c.read_closed)
              && (not (Conn.broken c.machine))
              && (not (Conn.close_after_flush c.machine))
              && Conn.output_pending c.machine <= high_watermark
            then reads := fd :: !reads;
            if Conn.output_pending c.machine > 0 then writes := fd :: !writes;
            next_tick :=
              min !next_tick (c.last_activity +. t.request_timeout))
          t.conns;
        let timeout = max 0.0 (min 0.5 (!next_tick -. now)) in
        match Unix.select !reads !writes [] timeout with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> sweep_dead t
        | rs, ws, _ ->
          if List.memq t.wake_r rs then drain_wake t;
          if
            !listener_open
            && List.memq t.listener rs
            && not (Atomic.get t.stopping)
          then accept_ready t;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.conns fd with
              | Some c -> try_write t c
              | None -> ())
            ws;
          List.iter
            (fun fd ->
              if fd != t.wake_r && not (!listener_open && fd == t.listener)
              then
                match Hashtbl.find_opt t.conns fd with
                | Some c -> handle_readable t c
                | None -> ())
            rs;
          let now = Unix.gettimeofday () in
          let expired =
            Hashtbl.fold
              (fun _ c acc ->
                if now -. c.last_activity > t.request_timeout then c :: acc
                else acc)
              t.conns []
          in
          List.iter
            (fun c ->
              if Conn.mid_request c.machine then
                Telemetry.incr "serve.request_timeouts";
              close_conn t c)
            expired
      end
    end
  done;
  if !listener_open then safe_close t.listener

let make_listener ~addr ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
    Unix.listen fd 256;
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception exn ->
    safe_close fd;
    raise exn

let start ?(addr = "127.0.0.1") ?(port = 8190) ?(request_timeout = 10.) ~api
    () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let listener = make_listener ~addr ~port in
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  let t =
    {
      api;
      listener;
      bound_port;
      wake_r;
      wake_w;
      conns = Hashtbl.create 64;
      rbuf = Bytes.create 65536;
      request_timeout = (if request_timeout <= 0. then 10. else request_timeout);
      stopping = Atomic.make false;
      stop_called = Atomic.make false;
      drain_deadline = Atomic.make infinity;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> run_loop t));
  t

let stop ?(drain_timeout = 5.0) t =
  if not (Atomic.exchange t.stop_called true) then begin
    (* deadline first: the loop must never observe [stopping] with a
       stale (zero) deadline and force-close immediately *)
    Atomic.set t.drain_deadline (Unix.gettimeofday () +. max 0. drain_timeout);
    Atomic.set t.stopping true;
    try ignore (Unix.write t.wake_w (Bytes.make 1 '\x00') 0 1)
    with Unix.Unix_error _ -> ()
  end

let wait t =
  (* poll instead of blocking in join straight away: a thread stuck in a
     C call never runs OCaml signal handlers, so a main thread that
     joined here directly would never see the SIGTERM that is supposed
     to stop the server.  The delay loop gives the runtime a safepoint
     every tick. *)
  while not (Atomic.get t.stopping) do
    Thread.delay 0.1
  done;
  match t.domain with
  | None -> ()
  | Some d ->
    Domain.join d;
    t.domain <- None;
    safe_close t.wake_r;
    safe_close t.wake_w

let install_signal_handlers t =
  let handler _ = stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
