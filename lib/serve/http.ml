let max_line = 8192
let max_headers = 100
let max_body = 8 * 1024 * 1024

(* backstop for incremental parsing: a head block larger than every
   per-line/per-count limit combined is hostile by construction *)
let max_head = max_line * (max_headers + 2)

module Reader = struct
  type t = {
    refill : bytes -> int -> int -> int;
    buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
  }

  let of_fd fd =
    {
      refill = Unix.read fd;
      buf = Bytes.create 16384;
      pos = 0;
      len = 0;
    }

  let of_string s =
    let consumed = ref false in
    {
      refill =
        (fun buf off cap ->
          if !consumed then 0
          else begin
            consumed := true;
            let n = min cap (String.length s) in
            (* strings longer than the buffer are not needed by tests *)
            Bytes.blit_string s 0 buf off n;
            n
          end);
      buf = Bytes.create (max 1 (String.length s));
      pos = 0;
      len = 0;
    }

  exception Timeout

  (* returns false on end of stream *)
  let ensure t =
    if t.pos < t.len then true
    else begin
      t.pos <- 0;
      t.len <-
        (try t.refill t.buf 0 (Bytes.length t.buf) with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise Timeout);
      t.len > 0
    end

  let read_byte t = if ensure t then Some (Bytes.get t.buf t.pos) else None

  let advance t = t.pos <- t.pos + 1

  (* one CRLF- (or bare-LF-) terminated line, terminator stripped *)
  let read_line t =
    let buf = Buffer.create 64 in
    let rec loop () =
      match read_byte t with
      | None -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      | Some '\n' ->
        advance t;
        let s = Buffer.contents buf in
        let l = String.length s in
        Some (if l > 0 && s.[l - 1] = '\r' then String.sub s 0 (l - 1) else s)
      | Some c ->
        if Buffer.length buf >= max_line then
          invalid_arg "Http: line too long"
        else begin
          advance t;
          Buffer.add_char buf c;
          loop ()
        end
    in
    loop ()

  let read_exact t n =
    let out = Bytes.create n in
    let filled = ref 0 in
    let ok = ref true in
    while !ok && !filled < n do
      if ensure t then begin
        let take = min (n - !filled) (t.len - t.pos) in
        Bytes.blit t.buf t.pos out !filled take;
        t.pos <- t.pos + take;
        filled := !filled + take
      end
      else ok := false
    done;
    if !ok then Some (Bytes.to_string out) else None
end

type request = {
  meth : string;
  target : string;
  path : string list;
  version : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

type error =
  [ `Eof | `Timeout | `Bad_request of string | `Too_large of string ]

let error_to_string = function
  | `Eof -> "end of stream"
  | `Timeout -> "read timed out"
  | `Bad_request msg -> "bad request: " ^ msg
  | `Too_large msg -> "message too large: " ^ msg

let header name headers = List.assoc_opt (String.lowercase_ascii name) headers

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec loop i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some h, Some l ->
          Buffer.add_char buf (Char.chr ((h * 16) + l));
          loop (i + 3)
        | _ ->
          Buffer.add_char buf '%';
          loop (i + 1))
      | c ->
        Buffer.add_char buf c;
        loop (i + 1)
  in
  loop 0;
  Buffer.contents buf

let split_target target =
  (* drop the query string, split on '/', decode, ignore empty segments *)
  let path_part =
    match String.index_opt target '?' with
    | Some q -> String.sub target 0 q
    | None -> target
  in
  String.split_on_char '/' path_part
  |> List.filter (fun seg -> seg <> "")
  |> List.map percent_decode

let parse_headers reader =
  let rec loop acc count =
    match Reader.read_line reader with
    | None -> Error (`Bad_request "eof inside headers")
    | Some "" -> Ok (List.rev acc)
    | Some _ when count >= max_headers -> Error (`Too_large "header count")
    | Some line -> (
      match String.index_opt line ':' with
      | None -> Error (`Bad_request "malformed header line")
      | Some colon ->
        let name =
          String.lowercase_ascii (String.trim (String.sub line 0 colon))
        in
        let value =
          String.trim
            (String.sub line (colon + 1) (String.length line - colon - 1))
        in
        loop ((name, value) :: acc) (count + 1))
  in
  loop [] 0

let body_length headers =
  match header "transfer-encoding" headers with
  | Some _ -> Error (`Bad_request "chunked transfer encoding not supported")
  | None -> (
    match header "content-length" headers with
    | None -> Ok 0
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | None -> Error (`Bad_request "malformed content-length")
      | Some len when len < 0 -> Error (`Bad_request "negative content-length")
      | Some len when len > max_body -> Error (`Too_large "body")
      | Some len -> Ok len))

let read_body reader headers =
  match body_length headers with
  | Error _ as e -> e
  | Ok 0 -> Ok ""
  | Ok len -> (
    match Reader.read_exact reader len with
    | Some body -> Ok body
    | None -> Error (`Bad_request "eof inside body"))

let guard_io f =
  match f () with
  | v -> v
  | exception Reader.Timeout -> Error `Timeout
  | exception Invalid_argument _ -> Error (`Too_large "line")
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Error `Eof

(* request line + headers from [reader]; the body (if any) is read by
   the caller *)
let request_head_of_reader reader =
  match Reader.read_line reader with
  | None -> Error `Eof
  | Some line -> (
    match String.split_on_char ' ' line with
    | [ meth; target; version ]
      when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
      let ( let* ) = Result.bind in
      let* headers = parse_headers reader in
      Ok
        {
          meth = String.uppercase_ascii meth;
          target;
          path = split_target target;
          version;
          headers;
          body = "";
        })
    | _ -> Error (`Bad_request "malformed request line"))

let response_head_of_reader reader =
  match Reader.read_line reader with
  | None -> Error `Eof
  | Some line -> (
    let parts = String.split_on_char ' ' line in
    match parts with
    | version :: code :: rest
      when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
      match int_of_string_opt code with
      | None -> Error (`Bad_request "malformed status line")
      | Some status ->
        let ( let* ) = Result.bind in
        let* headers = parse_headers reader in
        Ok
          {
            status;
            reason = String.concat " " rest;
            resp_headers = headers;
            resp_body = "";
          })
    | _ -> Error (`Bad_request "malformed status line"))

let read_response reader =
  guard_io @@ fun () ->
  let ( let* ) = Result.bind in
  let* head = response_head_of_reader reader in
  let* body = read_body reader head.resp_headers in
  Ok { head with resp_body = body }

(* the incremental entry points: a complete head block (everything up
   to and including the blank line) parsed in one go, body left to the
   state machine *)
let parse_request_head s =
  guard_io @@ fun () -> request_head_of_reader (Reader.of_string s)

let parse_response_head s =
  guard_io @@ fun () -> response_head_of_reader (Reader.of_string s)

let keep_alive req =
  match (req.version, header "connection" req.headers) with
  | _, Some c when String.lowercase_ascii c = "close" -> false
  | "HTTP/1.0", Some c -> String.lowercase_ascii c = "keep-alive"
  | "HTTP/1.0", None -> false
  | _ -> true

let reason_phrase = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let has_header name headers =
  List.exists (fun (k, _) -> String.lowercase_ascii k = name) headers

let render_response ?(headers = []) ~keep_alive ~status ~body buf =
  Printf.ksprintf (Buffer.add_string buf) "HTTP/1.1 %d %s\r\n" status
    (reason_phrase status);
  if not (has_header "content-type" headers) then
    Buffer.add_string buf "Content-Type: application/json\r\n";
  List.iter
    (fun (k, v) -> Printf.ksprintf (Buffer.add_string buf) "%s: %s\r\n" k v)
    headers;
  Printf.ksprintf (Buffer.add_string buf) "Content-Length: %d\r\n"
    (String.length body);
  Printf.ksprintf (Buffer.add_string buf) "Connection: %s\r\n"
    (if keep_alive then "keep-alive" else "close");
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body

let write_request ?(headers = []) ~meth ~target ~body fd =
  let buf = Buffer.create (256 + String.length body) in
  Printf.ksprintf (Buffer.add_string buf) "%s %s HTTP/1.1\r\n" meth target;
  if body <> "" && not (has_header "content-type" headers) then
    Buffer.add_string buf "Content-Type: application/json\r\n";
  List.iter
    (fun (k, v) -> Printf.ksprintf (Buffer.add_string buf) "%s: %s\r\n" k v)
    headers;
  Printf.ksprintf (Buffer.add_string buf) "Content-Length: %d\r\n"
    (String.length body);
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  write_all fd (Buffer.contents buf)
