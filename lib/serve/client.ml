module Json = Repro_util.Json

type t = {
  host : string;
  port : int;
  timeout : float;
  retries : int;
  mutex : Mutex.t;  (* serialises calls and guards the cached socket *)
  mutable fd : Unix.file_descr option;  (* kept-alive connection *)
}

type error =
  | Connect_failure of string
  | Http_error of { status : int; body : string }
  | Protocol_error of string

let error_to_string = function
  | Connect_failure msg -> "cannot reach model server: " ^ msg
  | Http_error { status; body } ->
    let detail =
      match Json.of_string body with
      | Ok j -> (
        match Json.member "error" j with
        | Some (Json.Str msg) -> msg
        | _ -> body)
      | Error _ -> body
    in
    Printf.sprintf "server returned %d %s: %s" status
      (Http.reason_phrase status) detail
  | Protocol_error msg -> "malformed server response: " ^ msg

let create ?(host = "127.0.0.1") ?(port = 8190) ?(timeout = 10.) ?(retries = 2)
    () =
  {
    host;
    port;
    timeout = max 0.1 timeout;
    retries = max 0 retries;
    mutex = Mutex.create ();
    fd = None;
  }

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for " ^ host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found -> failwith ("cannot resolve " ^ host))

let drop_connection t =
  match t.fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.fd <- None

(* the cached keep-alive socket, or a fresh connection; the bool says
   which, so a failure on a reused socket (the server may have idled it
   out between calls) can be distinguished from a real one *)
let obtain t =
  match t.fd with
  | Some fd -> (fd, true)
  | None ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.timeout;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.timeout;
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.connect fd (Unix.ADDR_INET (resolve t.host, t.port))
     with
    | () -> ()
    | exception exn ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise exn);
    t.fd <- Some fd;
    (fd, false)

let response_keeps_alive (resp : Http.response) =
  match Http.header "connection" resp.resp_headers with
  | Some v -> String.lowercase_ascii v <> "close"
  | None -> true

(* one request over the kept-alive connection.  A reused socket that
   turns out dead (idled out server-side between our calls) is retried
   once on a fresh connection before the failure counts — that retry is
   free, not one of the caller's transient retries. *)
let round_trip t ~headers ~meth ~target ~body =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  let once () =
    match obtain t with
    | exception exn -> `Raised (exn, false)
    | fd, reused -> (
      match
        Http.write_request
          ~headers:
            (("Host", Printf.sprintf "%s:%d" t.host t.port) :: headers)
          ~meth ~target ~body fd;
        Http.read_response (Http.Reader.of_fd fd)
      with
      | Ok resp ->
        if not (response_keeps_alive resp) then drop_connection t;
        `Ok resp
      | Error e ->
        drop_connection t;
        `Err (e, reused)
      | exception exn ->
        drop_connection t;
        `Raised (exn, reused))
  in
  let settle = function
    | `Ok resp -> Ok resp
    | `Err (e, _) -> Error e
    | `Raised (exn, _) -> raise exn
  in
  match once () with
  | `Err ((`Eof | `Timeout), true)
  | `Raised (Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _), true) ->
    settle (once ())
  | outcome -> settle outcome

(* ECONNREFUSED is transient like a reset: a server restarted on the
   same port refuses connections for a moment *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT
  | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EAGAIN | Unix.EWOULDBLOCK ->
    true
  | _ -> false

(* exponential backoff: 50 ms before the first retry, doubling, at
   most 2 s *)
let backoff_delay n = Float.min 2.0 (Float.ldexp 0.05 n)

(* When this process is tracing, every outgoing request carries the
   trace id and the innermost open span, so a traced server can tag its
   handler spans with the caller's context.  Untraced processes send
   nothing; servers that don't understand the headers ignore them —
   propagation never changes behaviour. *)
let trace_headers () =
  if not (Repro_obs.Trace.enabled ()) then []
  else
    let base = [ ("X-Trace-Id", Repro_obs.Trace.id ()) ] in
    match Repro_obs.Trace.current_span () with
    | Some s -> ("X-Parent-Span", string_of_int s) :: base
    | None -> base

let request ?(headers = []) ?retries t ~meth ~target ~body =
  let retries = Option.value retries ~default:t.retries in
  let headers = headers @ trace_headers () in
  let rec attempt n =
    let retry msg =
      if n < retries then begin
        Repro_engine.Telemetry.incr "serve.client_retries";
        Thread.delay (backoff_delay n);
        attempt (n + 1)
      end
      else Error (Connect_failure msg)
    in
    match round_trip t ~headers ~meth ~target ~body with
    | Ok resp -> Ok resp
    | Error (`Timeout | `Eof) -> retry "timed out"
    | Error ((`Bad_request _ | `Too_large _) as e) ->
      Error (Protocol_error (Http.error_to_string e))
    | exception Unix.Unix_error (code, _, _) when transient code ->
      retry (Unix.error_message code)
    | exception Unix.Unix_error (code, fn, _) ->
      Error (Connect_failure (Printf.sprintf "%s: %s" fn (Unix.error_message code)))
    | exception Failure msg -> Error (Connect_failure msg)
  in
  attempt 0

let shutdown t =
  Mutex.lock t.mutex;
  drop_connection t;
  Mutex.unlock t.mutex

let get ?headers t target = request ?headers t ~meth:"GET" ~target ~body:""
let post ?headers ?retries t target ~body =
  request ?headers ?retries t ~meth:"POST" ~target ~body

let expect_json resp =
  match resp with
  | Error _ as e -> e
  | Ok { Http.status; resp_body; _ } when status <> 200 ->
    Error (Http_error { status; body = resp_body })
  | Ok { Http.resp_body; _ } -> (
    match Json.of_string resp_body with
    | Ok j -> Ok j
    | Error msg -> Error (Protocol_error msg))

let get_json t target = expect_json (get t target)

let post_json ?retries t target ~body =
  expect_json (post ?retries t target ~body)

let point_to_json (kvco, ivco) =
  Json.Obj [ ("kvco", Json.Num kvco); ("ivco", Json.Num ivco) ]

let query_points ?retries t ~model points =
  let body =
    Json.to_string
      (Json.Obj
         [ ("points",
            Json.Arr (Array.to_list (Array.map point_to_json points))) ])
  in
  match
    post_json ?retries t (Printf.sprintf "/v1/models/%s/query" model) ~body
  with
  | Error _ as e -> e
  | Ok j -> (
    match Json.member "results" j with
    | Some (Json.Arr items) ->
      if List.length items <> Array.length points then
        Error (Protocol_error "result count does not match the batch")
      else begin
        match
          List.map
            (fun item ->
              match Api.point_eval_of_json item with
              | Ok pe -> pe
              | Error msg -> failwith msg)
            items
        with
        | pes -> Ok (Array.of_list pes)
        | exception Failure msg -> Error (Protocol_error msg)
      end
    | _ -> Error (Protocol_error "missing results array"))

let wait_ready ?(deadline = 5.) t =
  let stop_at = Unix.gettimeofday () +. deadline in
  let rec poll () =
    match get t "/v1/healthz" with
    | Ok { Http.status = 200; _ } -> true
    | _ ->
      if Unix.gettimeofday () >= stop_at then false
      else begin
        Thread.delay 0.05;
        poll ()
      end
  in
  poll ()
