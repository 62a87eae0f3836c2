let flag name =
  match Sys.getenv_opt name with
  | Some v when v <> "" && v <> "0" -> true
  | Some _ | None -> false

let int_var name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some v -> int_of_string_opt (String.trim v)

let full () = flag "HIEROPT_FULL"

type solver_mode = Sparse

let jobs_override = ref None
let set_jobs n = jobs_override := if n <= 0 then None else Some n

let jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
    match int_var "HIEROPT_JOBS" with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
