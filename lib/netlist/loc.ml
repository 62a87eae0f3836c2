type pos = { line : int; col : int }

exception Netlist_error of { file : string option; pos : pos; msg : string }

let fail ?file pos fmt =
  Printf.ksprintf (fun msg -> raise (Netlist_error { file; pos; msg })) fmt

let error_to_string = function
  | Netlist_error { file; pos; msg } ->
    Printf.sprintf "%s:%d:%d: %s"
      (Option.value ~default:"<netlist>" file)
      pos.line pos.col msg
  | e -> Printexc.to_string e

let () =
  Printexc.register_printer (function
    | Netlist_error _ as e -> Some (error_to_string e)
    | _ -> None)
