(* Run-lifecycle tests: snapshot format + atomicity, checkpointed GA
   state round-trips, resumable prefix maps, and the headline
   guarantee — interrupting the hierarchical flow at any phase or
   generation boundary and resuming produces byte-identical artefacts. *)

module H = Hieropt
module E = Repro_engine
module Prng = Repro_util.Prng
module Nsga2 = Repro_moo.Nsga2

let with_tmpdir f =
  let dir = Filename.temp_file "hieropt_ckpt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---- snapshot format ---- *)

let test_snapshot_roundtrip () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.snapshot" in
  let s = E.Snapshot.create ~fingerprint:"fp-1" in
  E.Snapshot.set_int s "gen" 7;
  E.Snapshot.set_string s "phase" "variation model";
  (* floats must survive bit-exactly, including the nasty ones *)
  let floats = [| 1.0; -0.0; Float.pi; 1e-300; infinity; neg_infinity; nan |] in
  E.Snapshot.set_floats s "f" floats;
  E.Snapshot.set_rows s "rows" [| [| 1.5; 2.5 |]; [||]; [| -3.25 |] |];
  E.Snapshot.set_bits s "prng" [| 0L; -1L; Int64.min_int; 42L |];
  E.Snapshot.save s path;
  match E.Snapshot.load ~fingerprint:"fp-1" path with
  | Error e -> Alcotest.failf "load: %s" (E.Snapshot.load_error_to_string e)
  | Ok s2 ->
    Alcotest.(check (option int)) "int" (Some 7) (E.Snapshot.get_int s2 "gen");
    Alcotest.(check (option string)) "string" (Some "variation model")
      (E.Snapshot.get_string s2 "phase");
    (* [compare] distinguishes nan/-0.0 correctly, [=] does not *)
    Alcotest.(check bool) "floats bit-exact" true
      (compare (E.Snapshot.get_floats s2 "f") (Some floats) = 0);
    Alcotest.(check bool) "rows" true
      (compare
         (E.Snapshot.get_rows s2 "rows")
         (Some [| [| 1.5; 2.5 |]; [||]; [| -3.25 |] |])
      = 0);
    Alcotest.(check bool) "bits" true
      (E.Snapshot.get_bits s2 "prng" = Some [| 0L; -1L; Int64.min_int; 42L |]);
    Alcotest.(check bool) "absent key" true (E.Snapshot.get_int s2 "nope" = None);
    (* a second save of the loaded state is byte-identical (sorted keys) *)
    let path2 = Filename.concat dir "s2.snapshot" in
    E.Snapshot.save s2 path2;
    Alcotest.(check string) "stable bytes" (read_file path) (read_file path2)

let test_snapshot_remove_and_atomicity () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.snapshot" in
  let s = E.Snapshot.create ~fingerprint:"fp" in
  E.Snapshot.set_int s "a" 1;
  E.Snapshot.set_int s "b" 2;
  Alcotest.(check bool) "mem" true (E.Snapshot.mem s "a");
  E.Snapshot.remove s "a";
  Alcotest.(check bool) "removed" false (E.Snapshot.mem s "a");
  E.Snapshot.save s path;
  E.Snapshot.save s path;
  (* the tmp file never survives a completed save *)
  Alcotest.(check bool) "no tmp residue" false
    (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check bool) "snapshot exists" true (Sys.file_exists path)

let load_err path ~fingerprint =
  match E.Snapshot.load ~fingerprint path with
  | Ok _ -> Alcotest.fail "expected a load error"
  | Error e -> e

let test_snapshot_load_errors () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.snapshot" in
  (match load_err path ~fingerprint:"fp" with
  | E.Snapshot.Missing _ -> ()
  | e -> Alcotest.failf "expected Missing, got %s" (E.Snapshot.load_error_to_string e));
  (* garbage magic *)
  write_file path "not a snapshot at all\n";
  (match load_err path ~fingerprint:"fp" with
  | E.Snapshot.Corrupt _ -> ()
  | e -> Alcotest.failf "expected Corrupt, got %s" (E.Snapshot.load_error_to_string e));
  (* a valid file... *)
  let s = E.Snapshot.create ~fingerprint:"fp" in
  E.Snapshot.set_int s "gen" 3;
  E.Snapshot.set_floats s "f" [| 1.0; 2.0 |];
  E.Snapshot.save s path;
  (match E.Snapshot.load ~fingerprint:"fp" path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid load: %s" (E.Snapshot.load_error_to_string e));
  let good = read_file path in
  (* ...truncated (torn write): drop the trailing end-marker line *)
  let lines = String.split_on_char '\n' good in
  let torn =
    String.concat "\n"
      (List.filteri (fun i _ -> i < List.length lines - 2) lines)
  in
  write_file path (torn ^ "\n");
  (match load_err path ~fingerprint:"fp" with
  | E.Snapshot.Corrupt _ -> ()
  | e -> Alcotest.failf "expected Corrupt (torn), got %s" (E.Snapshot.load_error_to_string e));
  (* ...version bumped: rewrite the first (magic) line *)
  let bumped =
    match String.index_opt good '\n' with
    | Some i -> "hieropt-snapshot 999" ^ String.sub good i (String.length good - i)
    | None -> Alcotest.fail "single-line snapshot"
  in
  write_file path bumped;
  (match load_err path ~fingerprint:"fp" with
  | E.Snapshot.Version_mismatch { found = 999; _ } -> ()
  | e -> Alcotest.failf "expected Version_mismatch, got %s" (E.Snapshot.load_error_to_string e));
  (* ...wrong config fingerprint *)
  write_file path good;
  match load_err path ~fingerprint:"other-config" with
  | E.Snapshot.Fingerprint_mismatch { found = "fp"; expected = "other-config" } -> ()
  | e -> Alcotest.failf "expected Fingerprint_mismatch, got %s" (E.Snapshot.load_error_to_string e)

(* ---- prng state capture ---- *)

let test_prng_bits_roundtrip () =
  let p = Prng.create 42 in
  (* burn some state, and leave a Box-Muller spare in flight *)
  for _ = 1 to 17 do
    ignore (Prng.float p 1.0)
  done;
  ignore (Prng.gaussian p ~mean:0.0 ~sigma:1.0);
  let q =
    match Prng.of_bits (Prng.to_bits p) with
    | Some q -> q
    | None -> Alcotest.fail "of_bits rejected to_bits output"
  in
  for i = 1 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "draw %d identical" i)
      true
      (Prng.gaussian p ~mean:0.0 ~sigma:1.0
       = Prng.gaussian q ~mean:0.0 ~sigma:1.0)
  done;
  Alcotest.(check bool) "wrong arity rejected" true
    (Prng.of_bits [| 1L; 2L |] = None);
  Alcotest.(check bool) "bad spare flag rejected" true
    (Prng.of_bits [| 1L; 2L; 3L; 4L; 7L; 0L |] = None)

(* ---- step-wise GA APIs ---- *)

(* cheap 2-objective problem with a constraint, so rank/crowding and
   constraint domination all get exercised *)
let zdt1ish =
  Repro_moo.Problem.create ~name:"zdt1ish"
    ~bounds:(Array.make 6 (0.0, 1.0))
    ~objective_names:[| "f1"; "f2" |]
    (fun v ->
      let f1 = v.(0) in
      let s = ref 0.0 in
      for i = 1 to 5 do
        s := !s +. v.(i)
      done;
      let g = 1.0 +. (9.0 *. !s /. 5.0) in
      {
        Repro_moo.Problem.objectives = [| f1; g *. (1.0 -. sqrt (f1 /. g)) |];
        constraint_violation = Float.max 0.0 (0.05 -. f1);
      })

let nsga_opts =
  { Nsga2.default_options with Nsga2.population = 16; generations = 12 }

let test_nsga2_stepwise_equals_optimise () =
  let a = Nsga2.optimise ~options:nsga_opts zdt1ish (Prng.create 5) in
  let st = Nsga2.init ~options:nsga_opts zdt1ish (Prng.create 5) in
  while Nsga2.generation st < nsga_opts.Nsga2.generations do
    Nsga2.step zdt1ish st
  done;
  Alcotest.(check bool) "identical final population" true
    (compare a (Nsga2.population st) = 0)

let test_nsga2_save_restore_midrun () =
  let reference = Nsga2.optimise ~options:nsga_opts zdt1ish (Prng.create 9) in
  let st = Nsga2.init ~options:nsga_opts zdt1ish (Prng.create 9) in
  for _ = 1 to 5 do
    Nsga2.step zdt1ish st
  done;
  let snap = E.Snapshot.create ~fingerprint:"fp" in
  Nsga2.save_state st snap ~key:"ga";
  (* keep mutating the original: the restored copy must be independent *)
  Nsga2.step zdt1ish st;
  let st2 =
    match Nsga2.restore_state ~options:nsga_opts zdt1ish snap ~key:"ga" with
    | Some st2 -> st2
    | None -> Alcotest.fail "restore_state failed"
  in
  Alcotest.(check int) "resumed at generation 5" 5 (Nsga2.generation st2);
  while Nsga2.generation st2 < nsga_opts.Nsga2.generations do
    Nsga2.step zdt1ish st2
  done;
  Alcotest.(check bool) "restored run matches uninterrupted" true
    (compare reference (Nsga2.population st2) = 0);
  (* malformed / absent state cold-starts *)
  Alcotest.(check bool) "absent key" true
    (Nsga2.restore_state ~options:nsga_opts zdt1ish snap ~key:"nope" = None);
  Nsga2.clear_state snap ~key:"ga";
  Alcotest.(check bool) "cleared state" true
    (Nsga2.restore_state ~options:nsga_opts zdt1ish snap ~key:"ga" = None)

(* ---- resumable prefix maps ---- *)

let test_resumable_map () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.snapshot" in
  let items = Array.init 10 float_of_int in
  let calls = ref 0 in
  let f x =
    incr calls;
    (x *. x) +. 0.5
  in
  let encode v = [| v |] in
  let decode r =
    if Array.length r = 1 then r.(0) else failwith "malformed row"
  in
  E.Pool.with_pool ~size:1 @@ fun pool ->
  let ck = E.Checkpoint.create ~every:3 ~fingerprint:"fp" path in
  let r1 = E.Checkpoint.resumable_map ~pool ck ~key:"k" ~encode ~decode f items in
  Alcotest.(check int) "all evaluated" 10 !calls;
  Alcotest.(check bool) "results" true
    (r1 = Array.map (fun x -> (x *. x) +. 0.5) items);
  (* resume over a completed prefix: nothing re-evaluated *)
  let ck2 =
    match E.Checkpoint.resume ~every:3 ~fingerprint:"fp" path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "resume: %s" e
  in
  calls := 0;
  let r2 = E.Checkpoint.resumable_map ~pool ck2 ~key:"k" ~encode ~decode f items in
  Alcotest.(check int) "prefix fully restored" 0 !calls;
  Alcotest.(check bool) "identical results" true (r1 = r2);
  (* corrupt one stored row: the whole prefix is discarded, loudly *)
  let snap = E.Checkpoint.snapshot ck2 in
  E.Snapshot.set_rows snap "k" [| [| 1.0; 2.0; 3.0 |] |];
  calls := 0;
  let r3 = E.Checkpoint.resumable_map ~pool ck2 ~key:"k" ~encode ~decode f items in
  Alcotest.(check int) "cold restart after bad row" 10 !calls;
  Alcotest.(check bool) "identical results still" true (r1 = r3)

let test_resumable_map_interrupt () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "s.snapshot" in
  let items = Array.init 10 float_of_int in
  let calls = ref 0 in
  let f x =
    incr calls;
    (* request an interrupt from inside the first chunk: the guard
       between chunks must flush the completed prefix and raise *)
    if !calls = 4 then E.Checkpoint.request_interrupt ();
    x +. 1.0
  in
  let encode v = [| v |] and decode r = r.(0) in
  E.Pool.with_pool ~size:1 @@ fun pool ->
  E.Checkpoint.clear_interrupt ();
  let ck = E.Checkpoint.create ~every:4 ~fingerprint:"fp" path in
  (try
     ignore (E.Checkpoint.resumable_map ~pool ck ~key:"k" ~encode ~decode f items);
     Alcotest.fail "expected Interrupted"
   with E.Checkpoint.Interrupted -> ());
  E.Checkpoint.clear_interrupt ();
  Alcotest.(check int) "stopped after first chunk" 4 !calls;
  (* the flushed snapshot holds the 4-item prefix; resume finishes the rest *)
  let ck2 =
    match E.Checkpoint.resume ~every:4 ~fingerprint:"fp" path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "resume: %s" e
  in
  calls := 100 (* past the interrupt trigger *);
  let r = E.Checkpoint.resumable_map ~pool ck2 ~key:"k" ~encode ~decode f items in
  Alcotest.(check int) "only the tail evaluated" 106 !calls;
  Alcotest.(check bool) "seam-free results" true
    (r = Array.map (fun x -> x +. 1.0) items)

(* ---- the headline guarantee: flow-level interrupt + resume ---- *)

let tiny_cfg ~model_dir ?checkpoint_every ?(resume = false) () =
  H.Hierarchy.make_config ~scale:H.Hierarchy.tiny_scale
    ~spec:H.Hierarchy.tiny_spec ~model_dir ?checkpoint_every ~resume ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

(* interrupting at every phase boundary (and mid-variation, at a design
   boundary) and resuming must reproduce the uninterrupted artefacts
   byte-for-byte; a corrupted snapshot must warn and restart cold to the
   same place.  The reference run's eval cache is copied into each leg's
   model dir so the re-runs hit memoised evaluations — which also
   exercises the engine's warm-vs-cold bit-identity guarantee. *)
let test_flow_interrupt_resume () =
  with_tmpdir @@ fun root ->
  let ref_dir = Filename.concat root "ref" in
  Sys.mkdir ref_dir 0o755;
  E.Checkpoint.clear_interrupt ();
  let reference = H.Hierarchy.run (tiny_cfg ~model_dir:ref_dir ()) in
  let ref_tbl = read_file (Filename.concat ref_dir "pareto.tbl") in
  let essence (r : H.Hierarchy.result) =
    (r.H.Hierarchy.entries, r.H.Hierarchy.rows, r.H.Hierarchy.selected,
     r.H.Hierarchy.yield)
  in
  let check_same name result dir =
    Alcotest.(check bool) (name ^ ": results bit-identical") true
      (compare (essence reference) (essence result) = 0);
    Alcotest.(check string) (name ^ ": pareto.tbl bytes") ref_tbl
      (read_file (Filename.concat dir "pareto.tbl"))
  in
  let fresh_dir name =
    let dir = Filename.concat root name in
    Sys.mkdir dir 0o755;
    (* warm the eval cache so the interrupted legs re-simulate nothing *)
    write_file
      (Filename.concat dir "eval.cache")
      (read_file (Filename.concat ref_dir "eval.cache"));
    dir
  in
  (* every phase boundary *)
  List.iter
    (fun phase ->
      let name = H.Hierarchy.phase_name phase in
      let dir = fresh_dir name in
      E.Checkpoint.clear_interrupt ();
      (try
         ignore
           (H.Hierarchy.run ~interrupt_after:phase
              (tiny_cfg ~model_dir:dir ~checkpoint_every:1 ()));
         Alcotest.failf "%s: expected Interrupted" name
       with E.Checkpoint.Interrupted -> ());
      let resumed =
        H.Hierarchy.run (tiny_cfg ~model_dir:dir ~checkpoint_every:1 ~resume:true ())
      in
      check_same name resumed dir)
    H.Hierarchy.[ Circuit_ga; Variation; Model; System_ga ];
  (* mid-phase: a design boundary inside the variation-model loop *)
  let dir = fresh_dir "mid-variation" in
  E.Checkpoint.clear_interrupt ();
  let armed = ref false in
  let progress s =
    if (not !armed) && contains s "variation model: design 2/" then begin
      armed := true;
      E.Checkpoint.request_interrupt ()
    end
  in
  (try
     ignore
       (H.Hierarchy.run ~progress
          (tiny_cfg ~model_dir:dir ~checkpoint_every:1 ()));
     Alcotest.fail "mid-variation: expected Interrupted"
   with E.Checkpoint.Interrupted -> ());
  Alcotest.(check bool) "interrupt armed mid-variation" true !armed;
  E.Checkpoint.clear_interrupt ();
  let resumed =
    H.Hierarchy.run (tiny_cfg ~model_dir:dir ~checkpoint_every:1 ~resume:true ())
  in
  check_same "mid-variation" resumed dir;
  (* corrupted snapshot: loud warning, clean cold start, same artefacts *)
  let dir = fresh_dir "corrupt" in
  write_file (Filename.concat dir "run.snapshot") "hieropt-snapshot 1\ngarbage\n";
  let warned_before = E.Telemetry.counter "checkpoint.cold_start" in
  E.Checkpoint.clear_interrupt ();
  let result =
    H.Hierarchy.run (tiny_cfg ~model_dir:dir ~checkpoint_every:1 ~resume:true ())
  in
  Alcotest.(check bool) "cold-start warning emitted" true
    (E.Telemetry.counter "checkpoint.cold_start" > warned_before);
  check_same "corrupt" result dir

let suite =
  [
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot remove + atomicity" `Quick
      test_snapshot_remove_and_atomicity;
    Alcotest.test_case "snapshot load errors" `Quick test_snapshot_load_errors;
    Alcotest.test_case "prng bits roundtrip" `Quick test_prng_bits_roundtrip;
    Alcotest.test_case "nsga2 stepwise = optimise" `Quick
      test_nsga2_stepwise_equals_optimise;
    Alcotest.test_case "nsga2 save/restore mid-run" `Quick
      test_nsga2_save_restore_midrun;
    Alcotest.test_case "resumable map" `Quick test_resumable_map;
    Alcotest.test_case "resumable map interrupt" `Quick
      test_resumable_map_interrupt;
    Alcotest.test_case "flow interrupt/resume bit-identity" `Slow
      test_flow_interrupt_resume;
  ]
