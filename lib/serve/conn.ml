(* Pull-based HTTP/1.1 connection state machine.  The server's event
   loop owns the sockets and the syscalls; this module owns the bytes:
   [feed] absorbs whatever arrived and returns the complete requests
   found (several at once for pipelined clients, none while a message
   is still partial), [push_response] appends wire bytes to the output
   buffer for the loop to drain as the socket allows. *)

type event = Request of Http.request | Protocol_error of Http.error

type state =
  | Head  (* accumulating request line + headers *)
  | Body of { head : Http.request; need : int }
  | Broken  (* protocol error emitted; no further parsing *)

type t = {
  mutable inp : Bytes.t;
  mutable in_start : int;  (* valid input region is [in_start, in_len) *)
  mutable in_len : int;
  mutable scan : int;  (* head-terminator scan resumes here, >= in_start *)
  mutable state : state;
  mutable out : Bytes.t;
  mutable out_start : int;  (* unwritten output is [out_start, out_len) *)
  mutable out_len : int;
  render : Buffer.t;  (* response serialisation scratch, reused *)
  mutable close_after_flush : bool;
}

let create () =
  {
    inp = Bytes.create 4096;
    in_start = 0;
    in_len = 0;
    scan = 0;
    state = Head;
    out = Bytes.create 4096;
    out_start = 0;
    out_len = 0;
    render = Buffer.create 1024;
    close_after_flush = false;
  }

(* make room for [extra] more bytes at [in_len]: compact the consumed
   prefix away first, grow only if still needed *)
let ensure_in t extra =
  if t.in_len + extra > Bytes.length t.inp then begin
    let used = t.in_len - t.in_start in
    if used + extra > Bytes.length t.inp then begin
      let cap = ref (max 8 (2 * Bytes.length t.inp)) in
      while used + extra > !cap do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.inp t.in_start grown 0 used;
      t.inp <- grown
    end
    else Bytes.blit t.inp t.in_start t.inp 0 used;
    t.scan <- t.scan - t.in_start;
    t.in_start <- 0;
    t.in_len <- used
  end

let consume t n =
  t.in_start <- t.in_start + n;
  t.scan <- t.in_start;
  if t.in_start = t.in_len then begin
    t.in_start <- 0;
    t.in_len <- 0;
    t.scan <- 0
  end

(* absolute offset one past the head-terminating blank line, or None if
   it has not arrived yet.  [scan] parks on a trailing '\n' (or
   "\n\r") so a terminator split across feeds is still found without
   rescanning the whole buffer. *)
let find_head_end t =
  let rec go i =
    if i >= t.in_len then begin
      t.scan <- max t.in_start (t.in_len - 2);
      None
    end
    else if Bytes.get t.inp i <> '\n' then go (i + 1)
    else if i + 1 < t.in_len && Bytes.get t.inp (i + 1) = '\n' then Some (i + 2)
    else if
      i + 2 < t.in_len
      && Bytes.get t.inp (i + 1) = '\r'
      && Bytes.get t.inp (i + 2) = '\n'
    then Some (i + 3)
    else if
      i + 1 >= t.in_len || (Bytes.get t.inp (i + 1) = '\r' && i + 2 >= t.in_len)
    then begin
      t.scan <- i;
      None
    end
    else go (i + 1)
  in
  go (max t.scan t.in_start)

let rec drive t acc =
  match t.state with
  | Broken -> acc
  | Body { head; need } ->
    if t.in_len - t.in_start >= need then begin
      let body = Bytes.sub_string t.inp t.in_start need in
      consume t need;
      t.state <- Head;
      drive t (Request { head with body } :: acc)
    end
    else acc
  | Head -> (
    match find_head_end t with
    | None ->
      if t.in_len - t.in_start > Http.max_head then begin
        t.state <- Broken;
        Protocol_error (`Too_large "head") :: acc
      end
      else acc
    | Some head_end ->
      let head_str = Bytes.sub_string t.inp t.in_start (head_end - t.in_start) in
      consume t (head_end - t.in_start);
      (match Http.parse_request_head head_str with
      | Error err ->
        t.state <- Broken;
        Protocol_error err :: acc
      | Ok head -> (
        match Http.body_length head.Http.headers with
        | Error err ->
          t.state <- Broken;
          Protocol_error err :: acc
        | Ok 0 -> drive t (Request head :: acc)
        | Ok need ->
          t.state <- Body { head; need };
          drive t acc)))

let feed t buf off len =
  match t.state with
  | Broken -> []
  | _ ->
    ensure_in t len;
    Bytes.blit buf off t.inp t.in_len len;
    t.in_len <- t.in_len + len;
    List.rev (drive t [])

let push_response ?headers ~keep_alive ~status ~body t =
  Buffer.clear t.render;
  Http.render_response ?headers ~keep_alive ~status ~body t.render;
  let n = Buffer.length t.render in
  if t.out_len + n > Bytes.length t.out then begin
    let used = t.out_len - t.out_start in
    if used + n > Bytes.length t.out then begin
      let cap = ref (max 8 (2 * Bytes.length t.out)) in
      while used + n > !cap do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.out t.out_start grown 0 used;
      t.out <- grown
    end
    else Bytes.blit t.out t.out_start t.out 0 used;
    t.out_start <- 0;
    t.out_len <- used
  end;
  Buffer.blit t.render 0 t.out t.out_len n;
  t.out_len <- t.out_len + n;
  if not keep_alive then t.close_after_flush <- true

let output_pending t = t.out_len - t.out_start

let output t = (t.out, t.out_start, t.out_len - t.out_start)

let output_consumed t n =
  t.out_start <- t.out_start + n;
  if t.out_start = t.out_len then begin
    t.out_start <- 0;
    t.out_len <- 0;
    (* a one-off huge response must not pin its buffer forever *)
    if Bytes.length t.out > 1 lsl 20 then t.out <- Bytes.create 4096
  end

let close_after_flush t = t.close_after_flush
let set_close_after_flush t = t.close_after_flush <- true
let broken t = t.state = Broken
let input_pending t = t.in_len - t.in_start > 0

let mid_request t =
  match t.state with
  | Body _ -> true
  | Head -> t.in_len - t.in_start > 0
  | Broken -> false
