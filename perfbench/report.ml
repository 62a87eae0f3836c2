(* The result line the bench prints last:
   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}.
   Building it refuses anything a reader of the line could misread: a
   malformed or repeated name, a value that is not a finite number, or
   counts that do not add up. *)

type metric = { name : string; value : float; unit_ : string }

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
  | _ -> false

(* [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or a
   digit *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

let result_json ~correct ~attempted ~failed metrics =
  let module J = Repro_serve.Json in
  let seen = Hashtbl.create 64 in
  let check m =
    if not (valid_name m.name) then Error (Printf.sprintf "invalid metric name %S" m.name)
    else if Hashtbl.mem seen m.name then
      Error (Printf.sprintf "duplicate metric %S" m.name)
    else if not (Float.is_finite m.value) then
      Error (Printf.sprintf "metric %s is not a finite number (%g)" m.name m.value)
    else begin
      Hashtbl.add seen m.name ();
      Ok ()
    end
  in
  let rec all = function
    | [] -> Ok ()
    | m :: rest -> Result.bind (check m) (fun () -> all rest)
  in
  if attempted < 1 then Error "attempted must be at least 1"
  else if failed < 0 || failed > attempted then
    Error (Printf.sprintf "failed = %d outside [0, %d]" failed attempted)
  else
    Result.map
      (fun () ->
        J.to_string
          (J.Obj
             [
               ("correct", J.Bool correct);
               ("attempted", J.Num (float_of_int attempted));
               ("failed", J.Num (float_of_int failed));
               ( "metrics",
                 J.Obj
                   (List.map
                      (fun m ->
                        ( m.name,
                          J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]
                        ))
                      metrics) );
             ]))
      (all metrics)
