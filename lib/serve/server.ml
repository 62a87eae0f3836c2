module Json = Repro_util.Json
module Telemetry = Repro_engine.Telemetry

(* one accepted socket owned by exactly one reactor *)
type conn = {
  fd : Unix.file_descr;
  machine : Conn.t;
  mutable last_activity : float;
  mutable read_closed : bool;  (* peer sent EOF; output may still drain *)
}

type reactor = {
  listener : Unix.file_descr;
  owns_listener : bool;
      (* false when SO_REUSEPORT was unavailable and this reactor
         shares reactor 0's listener — only the owner closes it *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  rbuf : Bytes.t;
}

type t = {
  api : Api.t;
  reactors : reactor array;
  bound_port : int;
  request_timeout : float;
  stopping : bool Atomic.t;
  stop_called : bool Atomic.t;
  drain_deadline : float Atomic.t;  (* meaningful once [stopping] *)
  mutable domains : unit Domain.t list;
}

let port t = t.bound_port
let error_body msg = Json.to_string (Json.Obj [ ("error", Json.Str msg) ])
let safe_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* above this many queued output bytes a connection stops being read:
   a slow consumer pipelining requests cannot balloon our buffers *)
let high_watermark = 256 * 1024

let close_conn r c =
  Hashtbl.remove r.conns c.fd;
  safe_close c.fd

(* opportunistic non-blocking drain of the output buffer; closes the
   connection once a [Connection: close] response is fully flushed *)
let try_write r c =
  let buf, off, len = Conn.output c.machine in
  if len > 0 then begin
    match Unix.write c.fd buf off len with
    | n ->
      Conn.output_consumed c.machine n;
      c.last_activity <- Unix.gettimeofday ();
      if Conn.output_pending c.machine = 0 && Conn.close_after_flush c.machine
      then close_conn r c
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> close_conn r c
  end
  else if Conn.close_after_flush c.machine then close_conn r c

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

let handle_readable t r c =
  match Unix.read c.fd r.rbuf 0 (Bytes.length r.rbuf) with
  | 0 ->
    c.read_closed <- true;
    if Conn.output_pending c.machine > 0 then
      (* half-closed client still waiting for its responses *)
      Conn.set_close_after_flush c.machine
    else close_conn r c
  | n ->
    c.last_activity <- Unix.gettimeofday ();
    handle_events t c (Conn.feed c.machine r.rbuf 0 n);
    try_write r c
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> close_conn r c

let rec accept_ready r =
  match Unix.accept ~cloexec:true r.listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    Telemetry.incr "serve.connections";
    Hashtbl.replace r.conns fd
      {
        fd;
        machine = Conn.create ();
        last_activity = Unix.gettimeofday ();
        read_closed = false;
      };
    accept_ready r
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
          | Unix.EINTR ),
          _,
          _ ) ->
    ()
  | exception Unix.Unix_error _ -> ()

let drain_wake r =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read r.wake_r scratch 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* a reactor that somehow holds a dead descriptor (select → EBADF)
   must shed it rather than spin *)
let sweep_dead r =
  let dead =
    Hashtbl.fold
      (fun _ c acc ->
        match Unix.fstat c.fd with
        | _ -> acc
        | exception Unix.Unix_error _ -> c :: acc)
      r.conns []
  in
  List.iter (close_conn r) dead

let reactor_loop t r =
  let listener_open = ref true in
  let finished = ref false in
  while not !finished do
    let now = Unix.gettimeofday () in
    let stopping = Atomic.get t.stopping in
    if stopping && !listener_open then begin
      if r.owns_listener then safe_close r.listener;
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
          r.conns []
      in
      List.iter (close_conn r) idle
    end;
    if stopping && Hashtbl.length r.conns = 0 then finished := true
    else begin
      let deadline =
        if stopping then Atomic.get t.drain_deadline else infinity
      in
      if stopping && now >= deadline then begin
        Telemetry.incr ~by:(Hashtbl.length r.conns) "serve.forced_closes";
        Hashtbl.iter
          (fun _ c ->
            (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            safe_close c.fd)
          r.conns;
        Hashtbl.reset r.conns;
        finished := true
      end
      else begin
        let reads =
          ref (r.wake_r :: (if !listener_open then [ r.listener ] else []))
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
          r.conns;
        let timeout = max 0.0 (min 0.5 (!next_tick -. now)) in
        match Unix.select !reads !writes [] timeout with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> sweep_dead r
        | rs, ws, _ ->
          if List.memq r.wake_r rs then drain_wake r;
          if
            !listener_open
            && List.memq r.listener rs
            && not (Atomic.get t.stopping)
          then accept_ready r;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt r.conns fd with
              | Some c -> try_write r c
              | None -> ())
            ws;
          List.iter
            (fun fd ->
              if fd != r.wake_r && not (!listener_open && fd == r.listener)
              then
                match Hashtbl.find_opt r.conns fd with
                | Some c -> handle_readable t r c
                | None -> ())
            rs;
          let now = Unix.gettimeofday () in
          let expired =
            Hashtbl.fold
              (fun _ c acc ->
                if now -. c.last_activity > t.request_timeout then c :: acc
                else acc)
              r.conns []
          in
          List.iter
            (fun c ->
              if Conn.mid_request c.machine then
                Telemetry.incr "serve.request_timeouts";
              close_conn r c)
            expired
      end
    end
  done;
  if !listener_open && r.owns_listener then safe_close r.listener

let make_listener ~addr ~port ~reuseport =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    if reuseport then Unix.setsockopt fd Unix.SO_REUSEPORT true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
    Unix.listen fd 256;
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception exn ->
    safe_close fd;
    raise exn

let start ?(addr = "127.0.0.1") ?(port = 8190) ?(reactors = 2)
    ?(request_timeout = 10.) ~api () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let n = max 1 reactors in
  (* shard accepts across reactors kernel-side: every reactor gets its
     own SO_REUSEPORT listener on the same address.  When the kernel
     refuses (no reuseport), all reactors share listener 0 and race
     non-blocking accepts instead. *)
  let first =
    match make_listener ~addr ~port ~reuseport:true with
    | fd -> fd
    | exception Unix.Unix_error _ -> make_listener ~addr ~port ~reuseport:false
  in
  let bound_port =
    match Unix.getsockname first with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let make_reactor i =
    let listener, owns_listener =
      if i = 0 then (first, true)
      else
        match make_listener ~addr ~port:bound_port ~reuseport:true with
        | fd -> (fd, true)
        | exception Unix.Unix_error _ -> (first, false)
    in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_r;
    {
      listener;
      owns_listener;
      wake_r;
      wake_w;
      conns = Hashtbl.create 64;
      rbuf = Bytes.create 65536;
    }
  in
  let t =
    {
      api;
      reactors = Array.init n make_reactor;
      bound_port;
      request_timeout = (if request_timeout <= 0. then 10. else request_timeout);
      stopping = Atomic.make false;
      stop_called = Atomic.make false;
      drain_deadline = Atomic.make infinity;
      domains = [];
    }
  in
  t.domains <-
    Array.to_list
      (Array.map (fun r -> Domain.spawn (fun () -> reactor_loop t r)) t.reactors);
  Telemetry.set "serve.reactors" n;
  t

let wake r =
  let b = Bytes.make 1 '\x00' in
  try ignore (Unix.write r.wake_w b 0 1) with Unix.Unix_error _ -> ()

let stop ?(drain_timeout = 5.0) t =
  if not (Atomic.exchange t.stop_called true) then begin
    (* deadline first: a reactor must never observe [stopping] with a
       stale (zero) deadline and force-close immediately *)
    Atomic.set t.drain_deadline (Unix.gettimeofday () +. max 0. drain_timeout);
    Atomic.set t.stopping true;
    Array.iter wake t.reactors
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
  List.iter Domain.join t.domains;
  t.domains <- [];
  Array.iter
    (fun r ->
      safe_close r.wake_r;
      safe_close r.wake_w)
    t.reactors

let install_signal_handlers t =
  let handler _ = stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
