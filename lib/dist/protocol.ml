module Json = Repro_util.Json
module Prng = Repro_util.Prng
module V = Repro_spice.Vco_measure

(* ---- PRNG stream wire codec -------------------------------------- *)

let stream_to_hex s =
  Prng.to_bits s
  |> Array.map (Printf.sprintf "%016Lx")
  |> Array.to_list |> String.concat ":"

let stream_of_hex str =
  let fields = String.split_on_char ':' str in
  match
    List.map
      (fun f ->
        if String.length f <> 16 then failwith "bad word"
        else Int64.of_string ("0x" ^ f))
      fields
  with
  | words -> (
    match Prng.of_bits (Array.of_list words) with
    | Some s -> Ok s
    | None -> Error "invalid PRNG state")
  | exception Failure _ -> Error "malformed PRNG stream"

(* ---- JSON helpers ------------------------------------------------- *)

(* Finite floats ride as JSON numbers (lossless decimal); non-finite
   values — infeasible evaluations carry [infinity] objectives — have
   no JSON number representation, so they ride as the strings
   [float_of_string] accepts ("inf", "-inf", "nan"). *)
let float_to_json x =
  if Float.is_finite x then Json.Num x
  else if x = Float.infinity then Json.Str "inf"
  else if x = Float.neg_infinity then Json.Str "-inf"
  else Json.Str "nan"

let float_of_json = function
  | Json.Num x -> x
  | Json.Str s -> (
    match float_of_string_opt s with
    | Some x when not (Float.is_finite x) -> x
    | _ -> failwith "not a number")
  | _ -> failwith "not a number"

let floats_to_json a =
  Json.Arr (Array.to_list (Array.map float_to_json a))

let floats_of_json ~what = function
  | Json.Arr items -> (
    match List.map float_of_json items with
    | xs -> Ok (Array.of_list xs)
    | exception Failure _ -> Error (what ^ ": expected an array of numbers"))
  | _ -> Error (what ^ ": expected an array")

let rows_to_json rows =
  Json.Arr (Array.to_list (Array.map floats_to_json rows))

let rows_of_json ~what = function
  | Json.Arr items -> (
    match
      List.map
        (fun item ->
          match floats_of_json ~what item with
          | Ok row -> row
          | Error msg -> failwith msg)
        items
    with
    | rows -> Ok (Array.of_list rows)
    | exception Failure msg -> Error msg)
  | _ -> Error (what ^ ": expected an array of arrays")

(* ---- model fingerprint -------------------------------------------- *)

let model_fingerprint model =
  Printf.sprintf "%08x"
    (Hashtbl.hash_param 1000 1000 (Hieropt.Perf_table.entries model))

(* ---- eval request/response ---------------------------------------- *)

type eval_request = {
  problem : string;
  salt : string;
  model_hash : string option;
  points : float array array;
}

let eval_request_to_json r =
  Json.Obj
    ([ ("problem", Json.Str r.problem); ("salt", Json.Str r.salt) ]
    @ (match r.model_hash with
      | Some h -> [ ("model_hash", Json.Str h) ]
      | None -> [])
    @ [ ("points", rows_to_json r.points) ])

let eval_request_of_json j =
  match
    ( Json.get_string "problem" j,
      Json.get_string "salt" j,
      Json.get_field "points" j )
  with
  | Ok problem, Ok salt, Ok points_j -> (
    match rows_of_json ~what:"points" points_j with
    | Ok points ->
      let model_hash =
        match Json.member "model_hash" j with
        | Some (Json.Str h) -> Some h
        | _ -> None
      in
      Ok { problem; salt; model_hash; points }
    | Error _ as e -> e)
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> Error msg

(* ---- Monte-Carlo request ------------------------------------------ *)

type mc_request = {
  mc_salt : string;
  params : float array;  (** 7-float vco_params vector *)
  streams : Prng.t array;
}

let mc_request_to_json r =
  Json.Obj
    [
      ("problem", Json.Str "mc");
      ("salt", Json.Str r.mc_salt);
      ("params", floats_to_json r.params);
      ( "streams",
        Json.Arr
          (Array.to_list
             (Array.map (fun s -> Json.Str (stream_to_hex s)) r.streams)) );
    ]

let mc_request_of_json j =
  match
    ( Json.get_string "salt" j,
      Json.get_field "params" j,
      Json.get_list "streams" j )
  with
  | Ok mc_salt, Ok params_j, Ok streams_j -> (
    match floats_of_json ~what:"params" params_j with
    | Error _ as e -> e
    | Ok params -> (
      match
        List.map
          (function
            | Json.Str hex -> (
              match stream_of_hex hex with
              | Ok s -> s
              | Error msg -> failwith msg)
            | _ -> failwith "streams: expected hex strings")
          streams_j
      with
      | streams -> Ok { mc_salt; params; streams = Array.of_list streams }
      | exception Failure msg -> Error msg))
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> Error msg

(* ---- trace propagation envelope ----------------------------------- *)

(* Optional profiling side-channel on eval/MC exchanges: the
   coordinator stamps requests with its trace id, the span the work
   belongs to, and a wall-clock send time; the worker echoes its own
   span id plus wall-clock receive/reply times.  The four stamps give
   an NTP-style clock-offset estimate per round trip, and the ids let
   [trace merge] nest worker spans under their coordinator parents.
   The envelope is additive JSON — untraced peers ignore it — and
   never influences evaluation, preserving bit-identical results. *)

type trace_ctx = { trace : string; parent : int; t_sent : float }
type trace_echo = { span : int; t_recv : float; t_replied : float }

let add_field name v = function
  | Json.Obj fields -> Json.Obj (fields @ [ (name, v) ])
  | j -> j

let with_trace_ctx ctx j =
  match ctx with
  | None -> j
  | Some c ->
    add_field "trace"
      (Json.Obj
         [
           ("id", Json.Str c.trace);
           ("parent", Json.Num (float_of_int c.parent));
           ("t_sent", Json.Num c.t_sent);
         ])
      j

let trace_ctx_of_json j =
  match Json.member "trace" j with
  | Some t -> (
    match
      (Json.get_string "id" t, Json.member "parent" t, Json.member "t_sent" t)
    with
    | Ok trace, Some (Json.Num p), Some (Json.Num ts) ->
      Some { trace; parent = int_of_float p; t_sent = ts }
    | _ -> None)
  | None -> None

let with_trace_echo echo j =
  match echo with
  | None -> j
  | Some e ->
    add_field "trace"
      (Json.Obj
         [
           ("span", Json.Num (float_of_int e.span));
           ("t_recv", Json.Num e.t_recv);
           ("t_replied", Json.Num e.t_replied);
         ])
      j

let trace_echo_of_json j =
  match Json.member "trace" j with
  | Some t -> (
    match
      ( Json.member "span" t,
        Json.member "t_recv" t,
        Json.member "t_replied" t )
    with
    | Some (Json.Num s), Some (Json.Num r), Some (Json.Num p) ->
      Some { span = int_of_float s; t_recv = r; t_replied = p }
    | _ -> None)
  | None -> None

(* ---- responses ---------------------------------------------------- *)

let results_to_json rows = Json.Obj [ ("results", rows_to_json rows) ]

let results_of_json j =
  match Json.get_field "results" j with
  | Error _ as e -> e
  | Ok rows_j -> rows_of_json ~what:"results" rows_j

(* MC outcome rows reuse the Monte-Carlo checkpoint convention:
   [| 1.0; kvco; ivco; jvco; fmin; fmax |] for a successful trial,
   [| 0.0 |] for a failed one.  Failure messages never cross the wire —
   only success payloads and failure counts feed the statistics, so a
   placeholder keeps remote runs bit-identical to local ones. *)
let perf_row_of_outcome = function
  | Ok (p : V.performance) ->
    [| 1.0; p.V.kvco; p.V.ivco; p.V.jvco; p.V.fmin; p.V.fmax |]
  | Error _ -> [| 0.0 |]

let outcome_of_perf_row row =
  if Array.length row = 6 && row.(0) = 1.0 then
    Ok
      {
        V.kvco = row.(1);
        ivco = row.(2);
        jvco = row.(3);
        fmin = row.(4);
        fmax = row.(5);
      }
  else if Array.length row = 1 && row.(0) = 0.0 then
    Error "failed trial (remote)"
  else failwith "Protocol: malformed Monte-Carlo outcome row"
