(* Performance-regression gate: compare a fresh BENCH.json against the
   committed bench/BASELINE.json and fail when a watched metric moved
   more than [tolerance] in its bad direction.

   Usage: bench_check [CURRENT] [BASELINE]
   (defaults: BENCH.json bench/BASELINE.json)

   A watched metric missing from either file is a failure, so metric
   renames force a deliberate baseline refresh
   (dune exec bench -- --scale tiny --write-baseline). *)

module Json = Repro_util.Json

type direction =
  | Lower_is_better
  | Higher_is_better
  | Bound of float
      (* absolute ceiling, for correctness metrics whose baseline value
         is noise-level (a relative threshold would be meaningless) *)

let tolerance = 0.25

let watched =
  [
    ("solver/transient_sparse_ms", Lower_is_better);
    ("solver/dcop_sparse_ms", Lower_is_better);
    ("engine/cache_speedup", Higher_is_better);
    ("engine/mc_speedup", Higher_is_better);
    ("timings/substrate/mna-assemble_ns", Lower_is_better);
    ("timings/substrate/lu-solve_ns", Lower_is_better);
    (* optimiser portfolio: front quality at a fixed ZDT1 eval budget
       must not erode, the surrogate must keep avoiding exact evals
       without losing the front, and its screened circuit-level GA leg
       gates on an absolute wall ceiling (shared-runner noise) *)
    ("moo/hv_at_budget_nsga2", Higher_is_better);
    ("moo/hv_at_budget_de", Higher_is_better);
    ("moo/surrogate.eval_avoided_ratio", Higher_is_better);
    ("moo/surrogate.front_agreement", Higher_is_better);
    ("moo/flow.wall_s", Bound 300.0);
  ]

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

let parse_file path =
  match read_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok body -> (
    match Json.of_string body with
    | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg)
    | Ok json -> (
      (* a repeated key silently shadows a metric (one leg of a bench
         overwriting another's numbers) — refuse to gate on such a file *)
      match Json.duplicate_key json with
      | Some where ->
        Error (Printf.sprintf "%s: duplicate JSON key %S" path where)
      | None -> Ok json))

(* metric paths are section/key; the key itself may contain slashes
   (the timings section), so split on the first one only *)
let lookup path json =
  match String.index_opt path '/' with
  | None -> Error (Printf.sprintf "metric %S has no section" path)
  | Some i ->
    let section = String.sub path 0 i in
    let key = String.sub path (i + 1) (String.length path - i - 1) in
    (match Json.member section json with
    | None -> Error (Printf.sprintf "section %S missing" section)
    | Some s -> (
      match Json.member key s with
      | None -> Error (Printf.sprintf "metric %S missing" path)
      | Some v -> Json.to_float v))

type verdict = Pass | Fail of string

let check direction ~baseline ~current =
  match direction with
  | Bound ceiling ->
    if current <= ceiling then Pass
    else Fail (Printf.sprintf "%.3g above ceiling %.3g" current ceiling)
  | Lower_is_better ->
    if current <= baseline *. (1.0 +. tolerance) then Pass
    else
      Fail
        (Printf.sprintf "+%.1f%% (limit +%.0f%%)"
           (100.0 *. ((current /. baseline) -. 1.0))
           (100.0 *. tolerance))
  | Higher_is_better ->
    if current >= baseline *. (1.0 -. tolerance) then Pass
    else
      Fail
        (Printf.sprintf "%.1f%% (limit -%.0f%%)"
           (100.0 *. ((current /. baseline) -. 1.0))
           (100.0 *. tolerance))

let () =
  let current_path, baseline_path =
    match Array.to_list Sys.argv with
    | [ _ ] -> ("BENCH.json", "bench/BASELINE.json")
    | [ _; c ] -> (c, "bench/BASELINE.json")
    | [ _; c; b ] -> (c, b)
    | _ ->
      prerr_endline "usage: bench_check [CURRENT] [BASELINE]";
      exit 2
  in
  let current, baseline =
    match (parse_file current_path, parse_file baseline_path) with
    | Ok c, Ok b -> (c, b)
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      exit 2
  in
  Printf.printf "%-40s %12s %12s   %s\n" "metric" "baseline" "current"
    "verdict";
  let failures = ref 0 in
  List.iter
    (fun (path, direction) ->
      match (lookup path baseline, lookup path current) with
      | Ok b, Ok c -> (
        match check direction ~baseline:b ~current:c with
        | Pass -> Printf.printf "%-40s %12.4g %12.4g   ok\n" path b c
        | Fail why ->
          incr failures;
          Printf.printf "%-40s %12.4g %12.4g   REGRESSION %s\n" path b c why)
      | Error msg, _ ->
        incr failures;
        Printf.printf "%-40s %12s %12s   FAIL baseline: %s\n" path "-" "-" msg
      | _, Error msg ->
        incr failures;
        Printf.printf "%-40s %12s %12s   FAIL current: %s\n" path "-" "-" msg)
    watched;
  if !failures > 0 then begin
    Printf.printf
      "\n%d metric(s) regressed beyond %.0f%%.  If intentional, refresh the \
       baseline with: dune exec bench -- --scale tiny --write-baseline\n"
      !failures (100.0 *. tolerance);
    exit 1
  end
  else Printf.printf "\nall %d watched metrics within tolerance\n"
      (List.length watched)
