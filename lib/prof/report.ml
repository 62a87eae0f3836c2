module Json = Repro_util.Json
module A = Analysis
module Ev = Event

let jstr name j = Result.to_option (Json.get_string name j)
let jnum name j = Result.to_option (Json.get_float name j)

(* the journal is append-only across runs: report the newest run, the
   last one that recorded a start (or, failing that, the last line's) *)
let newest_run events =
  let started =
    List.fold_left
      (fun acc j ->
        if jstr "event" j = Some "run.start" then jstr "run" j else acc)
      None events
  in
  match (started, List.rev events) with
  | Some id, _ -> Some id
  | None, last :: _ -> Some (Option.value ~default:"?" (jstr "run" last))
  | None, [] -> None

let journal ppf events =
  match newest_run events with
  | None -> Error "journal is empty"
  | Some run_id ->
    let events = List.filter (fun j -> jstr "run" j = Some run_id) events in
    let of_event name =
      List.filter (fun j -> jstr "event" j = Some name) events
    in
    (match of_event "run.start" with
    | start :: _ ->
      Format.fprintf ppf "run %s  (fingerprint %s, %d events)@." run_id
        (Option.value ~default:"?" (jstr "fingerprint" start))
        (List.length events)
    | [] ->
      Format.fprintf ppf "run %s  (%d events)@." run_id (List.length events));
    (* per-phase wall-clock breakdown, in completion order *)
    let phases =
      List.filter_map
        (fun j ->
          match (jstr "phase" j, jnum "seconds" j) with
          | Some p, Some s -> Some (p, s)
          | _ -> None)
        (of_event "phase.finish")
    in
    if phases <> [] then begin
      let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 phases in
      Format.fprintf ppf "@.phase breakdown:@.";
      List.iter
        (fun (p, s) ->
          Format.fprintf ppf "  %-14s %9.3f s  %5.1f%%@." p s
            (if total > 0.0 then 100.0 *. s /. total else 0.0))
        phases;
      Format.fprintf ppf "  %-14s %9.3f s@." "total" total
    end;
    (* generation-by-generation convergence, one table per GA label *)
    let generations = of_event "ga.generation" in
    let labels =
      List.fold_left
        (fun acc j ->
          match jstr "label" j with
          | Some l when not (List.mem l acc) -> acc @ [ l ]
          | _ -> acc)
        [] generations
    in
    List.iter
      (fun label ->
        Format.fprintf ppf "@.%s-level convergence:@." label;
        Format.fprintf ppf "  %4s  %5s  %12s  %12s@." "gen" "front" "spread"
          "hypervolume";
        List.iter
          (fun j ->
            if jstr "label" j = Some label then
              Format.fprintf ppf "  %4.0f  %5.0f  %12.5g  %12.5g@."
                (Option.value ~default:0.0 (jnum "generation" j))
                (Option.value ~default:0.0 (jnum "front_size" j))
                (Option.value ~default:0.0 (jnum "spread" j))
                (Option.value ~default:0.0 (jnum "hypervolume" j)))
          generations)
      labels;
    let warnings = of_event "warning" in
    if warnings <> [] then begin
      Format.fprintf ppf "@.warnings (%d):@." (List.length warnings);
      List.iter
        (fun j ->
          Format.fprintf ppf "  [%s] %s@."
            (Option.value ~default:"?" (jstr "key" j))
            (Option.value ~default:"" (jstr "message" j)))
        warnings
    end;
    (* per-label surrogate pre-screen outcomes (one "evals" event per
       screened GA run) ... *)
    let evals = of_event "evals" in
    if evals <> [] then begin
      Format.fprintf ppf "@.surrogate pre-screen:@.";
      Format.fprintf ppf "  %-8s %8s %8s %8s@." "label" "avoided" "paid"
        "ratio";
      List.iter
        (fun j ->
          let avoided = Option.value ~default:0.0 (jnum "avoided" j) in
          let paid = Option.value ~default:0.0 (jnum "paid" j) in
          let total = avoided +. paid in
          Format.fprintf ppf "  %-8s %8.0f %8.0f %7.1f%%@."
            (Option.value ~default:"?" (jstr "label" j))
            avoided paid
            (if total > 0.0 then 100.0 *. avoided /. total else 0.0))
        evals
    end;
    (match of_event "run.finish" with
    | finish :: _ ->
      let f name = Option.value ~default:0.0 (jnum name finish) in
      (* ... and the run-wide avoided/cached/simulated split carried on
         the finish event — one table covering both the surrogate and
         the eval cache, so the whole evaluation budget is readable in
         one place *)
      let avoided = f "eval_avoided" in
      let hits = f "eval_cache_hits" in
      let runs = f "eval_runs" in
      let requested = avoided +. hits +. runs in
      if requested > 0.0 then begin
        let pct x = 100.0 *. x /. requested in
        Format.fprintf ppf "@.evals:@.";
        Format.fprintf ppf "  %-10s %8.0f@." "requested" requested;
        Format.fprintf ppf "  %-10s %8.0f  %5.1f%%  (surrogate pre-screen)@."
          "avoided" avoided (pct avoided);
        Format.fprintf ppf "  %-10s %8.0f  %5.1f%%  (eval cache)@." "cached"
          hits (pct hits);
        Format.fprintf ppf "  %-10s %8.0f  %5.1f%%@." "simulated" runs
          (pct runs)
      end;
      (* ... and what the simulator paid for the simulated ones; a
         journal written before these counters existed has no such
         fields and no such block *)
      (match jnum "tran_runs" finish with
      | None -> ()
      | Some transients ->
        let steps = f "tran_steps" and newton = f "tran_newton" in
        Format.fprintf ppf "@.simulator:@.";
        Format.fprintf ppf "  %-18s %10.0f@." "characterisations"
          (f "vco_characterisations");
        Format.fprintf ppf "  %-18s %10.0f  (%.0f still unresolved)@."
          "window extensions" (f "vco_extensions")
          (f "vco_extensions_failed");
        Format.fprintf ppf "  %-18s %10.0f@." "transients" transients;
        Format.fprintf ppf "  %-18s %10.0f  (%.0f rejected)@."
          "accepted steps" steps (f "tran_halvings");
        Format.fprintf ppf "  %-18s %10.0f  (%.2f per step)@."
          "Newton iterations" newton
          (if steps > 0.0 then newton /. steps else 0.0);
        (* the transients' domain-seconds, which journals written before
           the timer existed lack *)
        (match jnum "tran_seconds" finish with
        | None -> ()
        | Some seconds ->
          Format.fprintf ppf
            "  %-18s %10.2f  (%.2f us per Newton iteration)@."
            "transient seconds" seconds
            (if newton > 0.0 then 1e6 *. seconds /. newton else 0.0));
        (* journals written before the PLL counters existed lack them *)
        match jnum "pll_sims" finish with
        | None -> ()
        | Some sims ->
          Format.fprintf ppf "  %-18s %10.0f  (%.0f steps)@."
            "behavioural PLL" sims (f "pll_steps"));
      Format.fprintf ppf "@.run finished in %.3f s@." (f "seconds")
    | [] ->
      Format.fprintf ppf
        "@.run did not record a finish event (still running or killed)@.");
    Ok ()

let unbalanced_note n =
  if n > 0 then Printf.sprintf ", %d unbalanced events" n else ""

let trace ppf ~top (p : Merge.process) =
  let spans = A.slowest (Ev.spans p.events) in
  Format.fprintf ppf "@.slowest spans (%d total%s):@." (List.length spans)
    (unbalanced_note (Ev.unbalanced p.events));
  Format.fprintf ppf "  %12s  %-24s  %4s  %4s  %12s@." "duration" "span" "pid"
    "tid" "start";
  List.iteri
    (fun i (s : Ev.span) ->
      if i < top then
        Format.fprintf ppf "  %9.3f ms  %-24s  %4d  %4d  %9.3f ms@."
          (Ev.dur s /. 1e3) s.name s.pid s.tid (s.t0 /. 1e3))
    spans

let profile ppf ~path ~top ?folded (p : Merge.process) =
  let events = p.events in
  let roots = Ev.spans events in
  if roots = [] then Error (Printf.sprintf "trace %s contains no spans" path)
  else begin
    let t0 =
      List.fold_left (fun a (s : Ev.span) -> min a s.t0) infinity roots
    in
    let t1 =
      List.fold_left (fun a (s : Ev.span) -> max a s.t1) neg_infinity roots
    in
    (* process names: the meta label for a single-process file, the
       process_name metadata events for a merged one *)
    let plabels =
      let from_meta =
        match p.label with Some l -> [ (p.pid, l) ] | None -> []
      in
      List.fold_left
        (fun acc (e : Ev.t) ->
          match (e.ph, e.name, Ev.arg "name" e.args) with
          | 'M', "process_name", Some l when not (List.mem_assoc e.pid acc) ->
            (e.pid, l) :: acc
          | _ -> acc)
        from_meta events
    in
    let pname pid =
      match List.assoc_opt pid plabels with
      | Some l -> l
      | None -> Printf.sprintf "pid%d" pid
    in
    (* The CLI wraps every traced run in a root "run" span, so its
       duration IS that process's traced wall time; self-times
       telescope to the root durations, which is how the table accounts
       for ~100% of it.  In a merged trace every process has a "run"
       span and a server outlives the run that called it, so prefer the
       process labelled coordinator as the wall reference. *)
    let wall =
      let runs = List.filter (fun (s : Ev.span) -> s.name = "run") roots in
      let coord =
        List.find_opt (fun (s : Ev.span) -> pname s.pid = "coordinator") runs
      in
      match (coord, runs) with
      | Some s, _ | None, s :: _ -> Ev.dur s
      | None, [] -> t1 -. t0
    in
    let share x = if wall > 0.0 then 100.0 *. x /. wall else 0.0 in
    let rows = A.self_time roots in
    let attributed = A.total_self rows in
    Format.fprintf ppf "@.profile of %s  (%d events, %d spans%s)@." path
      (List.length events)
      (List.length (Ev.flatten roots))
      (unbalanced_note (Ev.unbalanced events));
    Format.fprintf ppf
      "wall %9.3f ms;  %.3f ms (%.1f%%) attributed to %d span names \
       (concurrent domains can push this past 100%%)@."
      (wall /. 1e3) (attributed /. 1e3) (share attributed) (List.length rows);
    Format.fprintf ppf "@.self-time by span name (top %d of %d):@."
      (min top (List.length rows))
      (List.length rows);
    Format.fprintf ppf "  %-20s %7s %12s %12s %7s@." "span" "count" "total"
      "self" "self%";
    List.iteri
      (fun i (r : A.row) ->
        if i < top then
          Format.fprintf ppf "  %-20s %7d %9.3f ms %9.3f ms %6.1f%%@." r.name
            r.count (r.total_us /. 1e3) (r.self_us /. 1e3) (share r.self_us))
      rows;
    (* allocation attribution — present when the trace was recorded with
       GC capture (hieropt --trace always switches it on) *)
    let gc_rows =
      List.filter
        (fun (r : A.row) -> r.gc_minor_total > 0.0 || r.gc_major_total > 0.0)
        rows
      |> List.sort (fun (a : A.row) b ->
             compare b.gc_minor_self a.gc_minor_self)
    in
    if gc_rows <> [] then begin
      Format.fprintf ppf
        "@.allocation by span name (top %d of %d, minor words):@."
        (min top (List.length gc_rows))
        (List.length gc_rows);
      Format.fprintf ppf "  %-20s %12s %12s %10s %10s@." "span" "self" "total"
        "minor gcs" "major gcs";
      List.iteri
        (fun i (r : A.row) ->
          if i < top then
            Format.fprintf ppf "  %-20s %12.4g %12.4g %10d %10d@." r.name
              r.gc_minor_self r.gc_minor_total r.gc_minor_cols r.gc_major_cols)
        gc_rows
    end;
    let print_utilization ~what ~t0 ~t1 =
      match A.utilization roots ~t0 ~t1 with
      | [] -> ()
      | util ->
        Format.fprintf ppf "  %-18s" what;
        List.iter
          (fun ((pid, tid), f) ->
            Format.fprintf ppf "  %s/d%d %5.1f%%" (pname pid) tid (100.0 *. f))
          util;
        Format.fprintf ppf "@."
    in
    Format.fprintf ppf "@.domain utilization (pool busy-time over window):@.";
    print_utilization ~what:"whole run" ~t0 ~t1;
    List.iter
      (fun (s : Ev.span) ->
        if String.starts_with ~prefix:"phase." s.name && s.name <> "phase."
        then print_utilization ~what:s.name ~t0:s.t0 ~t1:s.t1)
      (Ev.flatten roots);
    match folded with
    | None -> Ok ()
    | Some out -> (
      match
        Out_channel.with_open_text out (fun oc ->
            output_string oc (A.folded ~labels:plabels roots))
      with
      | () ->
        Format.fprintf ppf "@.folded stacks -> %s@." out;
        Ok ()
      | exception Sys_error msg ->
        Error (Printf.sprintf "cannot write %s: %s" out msg))
  end
