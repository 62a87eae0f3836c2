(* repro_engine: domain pool, deterministic parallel map, eval cache,
   telemetry — and the cross-stack determinism guarantee (NSGA-II /
   Monte-Carlo / yield identical at 1 vs 4 workers). *)

module E = Repro_engine
module Prng = Repro_util.Prng
module T = Repro_circuit.Topologies

let check = Alcotest.(check bool)

(* ---- config ------------------------------------------------------ *)

let test_config_jobs () =
  Unix.putenv "HIEROPT_JOBS" "3";
  E.Config.set_jobs 0;
  Alcotest.(check int) "env var honoured" 3 (E.Config.jobs ());
  E.Config.set_jobs 5;
  Alcotest.(check int) "override wins" 5 (E.Config.jobs ());
  E.Config.set_jobs 0;
  Unix.putenv "HIEROPT_JOBS" "not-a-number";
  check "garbage falls back to domain count" true (E.Config.jobs () >= 1);
  Unix.putenv "HIEROPT_JOBS" ""

let test_config_flag () =
  Unix.putenv "HIEROPT_FULL" "1";
  check "set" true (E.Config.full ());
  Unix.putenv "HIEROPT_FULL" "0";
  check "zero is off" false (E.Config.full ());
  Unix.putenv "HIEROPT_FULL" "";
  check "empty is off" false (E.Config.full ())

(* ---- pool / parmap ----------------------------------------------- *)

let test_parmap_matches_serial () =
  let input = Array.init 1000 (fun i -> i) in
  let f i = (i * i) + 1 in
  let expect = Array.map f input in
  List.iter
    (fun size ->
      E.Pool.with_pool ~size (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "map @ %d workers" size)
            expect
            (E.Parmap.map ~pool f input);
          Alcotest.(check (array int))
            (Printf.sprintf "init @ %d workers" size)
            expect
            (E.Parmap.init ~pool 1000 f)))
    [ 1; 2; 4 ]

let test_parmap_order_preserved () =
  E.Pool.with_pool ~size:4 (fun pool ->
      let out = E.Parmap.mapi ~pool (fun i x -> (i, x * 2)) [| 5; 6; 7; 8 |] in
      Alcotest.(check (list (pair int int)))
        "indexed order"
        [ (0, 10); (1, 12); (2, 14); (3, 16) ]
        (Array.to_list out))

let test_parmap_empty_and_exception () =
  E.Pool.with_pool ~size:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (E.Parmap.map ~pool succ [||]);
      Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
          ignore
            (E.Parmap.map ~pool
               (fun i -> if i = 17 then failwith "boom" else i)
               (Array.init 64 Fun.id))))

let test_parmap_nested () =
  (* nested parallel regions serialise instead of deadlocking *)
  E.Pool.with_pool ~size:4 (fun pool ->
      let out =
        E.Parmap.map ~pool
          (fun i ->
            Array.fold_left ( + ) 0
              (E.Parmap.map ~pool (fun j -> i + j) (Array.init 8 Fun.id)))
          (Array.init 16 Fun.id)
      in
      Alcotest.(check (array int))
        "nested result"
        (Array.init 16 (fun i -> (8 * i) + 28))
        out)

let test_pool_shutdown () =
  let pool = E.Pool.create ~size:3 () in
  Alcotest.(check int) "size" 3 (E.Pool.size pool);
  E.Pool.shutdown pool;
  E.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      E.Pool.submit pool (fun () -> ()))

let test_map_seeded_deterministic () =
  let draw stream () = Prng.uniform stream in
  let run size =
    E.Pool.with_pool ~size (fun pool ->
        E.Parmap.map_seeded ~pool ~prng:(Prng.create 99) draw
          (Array.make 50 ()))
  in
  let serial = run 1 and parallel = run 4 in
  check "seeded map identical at 1 vs 4 workers" true (serial = parallel);
  (* and identical to the historical serial split-per-iteration idiom *)
  let prng = Prng.create 99 in
  let reference =
    Array.init 50 (fun _ ->
        let stream = Prng.split prng in
        Prng.uniform stream)
  in
  check "matches split-per-iteration loop" true (serial = reference)

(* ---- cache ------------------------------------------------------- *)

let test_cache_key_canonical () =
  let k1 = E.Cache.key ~kind:"m" [| 1.0; 0.0 |] in
  let k2 = E.Cache.key ~kind:"m" [| 1.0; -0.0 |] in
  let k3 = E.Cache.key ~kind:"m" [| 1.0; nan |] in
  let k4 = E.Cache.key ~kind:"m" [| 1.0; Float.nan |] in
  let cache = E.Cache.create () in
  E.Cache.store cache k1 [| 42.0 |];
  check "-0.0 aliases 0.0" true (E.Cache.find cache k2 = Some [| 42.0 |]);
  E.Cache.store cache k3 [| 7.0 |];
  check "nan payloads collapse" true (E.Cache.find cache k4 = Some [| 7.0 |]);
  check "kind distinguishes" true
    (E.Cache.find cache (E.Cache.key ~kind:"other" [| 1.0; 0.0 |]) = None);
  check "sample distinguishes" true
    (E.Cache.find cache (E.Cache.key ~sample:3 ~kind:"m" [| 1.0; 0.0 |])
    = None);
  check "vector distinguishes" true
    (E.Cache.find cache (E.Cache.key ~kind:"m" [| 1.0; 2.0 |]) = None);
  Alcotest.(check (option string))
    "kind accessor" (Some "m")
    (Some (E.Cache.key_kind k1));
  check "sample accessor" true
    (E.Cache.key_sample k1 = None
    && E.Cache.key_sample (E.Cache.key ~sample:3 ~kind:"m" [||]) = Some 3)

let test_cache_counters_eviction () =
  let cache = E.Cache.create ~capacity:4 () in
  for i = 0 to 5 do
    E.Cache.store cache
      (E.Cache.key ~kind:"k" [| float_of_int i |])
      [| float_of_int (i * 10) |]
  done;
  Alcotest.(check int) "capacity respected" 4 (E.Cache.length cache);
  Alcotest.(check int) "evictions counted" 2 (E.Cache.evictions cache);
  check "oldest evicted" true
    (E.Cache.find cache (E.Cache.key ~kind:"k" [| 0.0 |]) = None);
  check "newest kept" true
    (E.Cache.find cache (E.Cache.key ~kind:"k" [| 5.0 |]) = Some [| 50.0 |]);
  Alcotest.(check int) "hits" 1 (E.Cache.hits cache);
  Alcotest.(check int) "misses" 1 (E.Cache.misses cache);
  let v =
    E.Cache.find_or_compute cache
      (E.Cache.key ~kind:"k" [| 9.0 |])
      (fun () -> [| 90.0 |])
  in
  check "find_or_compute computes" true (v = [| 90.0 |]);
  check "then caches" true
    (E.Cache.find cache (E.Cache.key ~kind:"k" [| 9.0 |]) = Some [| 90.0 |])

(* re-storing a key replaces its value in place: the entry is neither
   queued twice nor moved to the back of the eviction order *)
let test_cache_store_replaces () =
  let cache = E.Cache.create ~capacity:3 () in
  let k i = E.Cache.key ~kind:"k" [| float_of_int i |] in
  E.Cache.store cache (k 0) [| 1.0 |];
  E.Cache.store cache (k 1) [| 10.0 |];
  E.Cache.store cache (k 0) [| 0.0; 0.5 |];
  check "the later value wins" true
    (E.Cache.find cache (k 0) = Some [| 0.0; 0.5 |]);
  Alcotest.(check int) "one entry per key" 2 (E.Cache.length cache);
  E.Cache.store cache (k 2) [| 20.0 |];
  E.Cache.store cache (k 3) [| 30.0 |];
  check "the replaced key is still the oldest" true
    (E.Cache.find cache (k 0) = None);
  check "the next one is kept" true
    (E.Cache.find cache (k 1) = Some [| 10.0 |]);
  Alcotest.(check int) "one eviction" 1 (E.Cache.evictions cache);
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  E.Cache.save cache path;
  Alcotest.(check int) "each key saved once" 4
    (List.length (In_channel.with_open_text path In_channel.input_lines))

let test_cache_roundtrip () =
  let cache = E.Cache.create () in
  let entries =
    [
      (E.Cache.key ~kind:"vco" [| 1.5e-6; 0.12e-6 |], [| 1.0; -2.5; 3.25e-12 |]);
      (E.Cache.key ~sample:7 ~kind:"mc" [| 0.0 |], [| infinity; 1e308 |]);
      (E.Cache.key ~kind:"empty" [||], [||]);
    ]
  in
  List.iter (fun (k, v) -> E.Cache.store cache k v) entries;
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      E.Cache.save cache path;
      let loaded = E.Cache.load path in
      Alcotest.(check int) "all entries survive" 3 (E.Cache.length loaded);
      List.iter
        (fun (k, v) ->
          check "value roundtrips losslessly" true
            (E.Cache.find loaded k = Some v))
        entries;
      check "load_if_exists hit" true (E.Cache.load_if_exists path <> None);
      (* save writes a tmp file and renames it into place *)
      check "no tmp residue" false (Sys.file_exists (path ^ ".tmp")));
  check "load_if_exists miss" true
    (E.Cache.load_if_exists "/nonexistent/eval.cache" = None)

let test_cache_concurrent () =
  (* two threads hammer the same key space while FIFO eviction churns:
     every successful find must return the exact stored value (no torn
     reads) and the counters must account for every find *)
  let cache = E.Cache.create ~capacity:32 () in
  let value_of i = [| float_of_int i; float_of_int (i * i) |] in
  let torn = Atomic.make 0 in
  let finds = Atomic.make 0 in
  let worker () =
    for round = 0 to 2 do
      ignore round;
      for i = 0 to 199 do
        let key = E.Cache.key ~kind:"eval:conc" [| float_of_int i |] in
        E.Cache.store cache key (value_of i);
        match E.Cache.find cache key with
        | None -> Atomic.incr finds
        | Some v ->
          Atomic.incr finds;
          if v <> value_of i then Atomic.incr torn
      done
    done
  in
  let t1 = Thread.create worker () in
  let t2 = Thread.create worker () in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check int) "every find counted" (Atomic.get finds)
    (E.Cache.hits cache + E.Cache.misses cache);
  check "eviction happened" true (E.Cache.evictions cache > 0);
  check "capacity respected" true (E.Cache.length cache <= 32)

(* a key word must be all hex: a trailing or embedded non-hex character
   makes the whole line malformed, never a truncated key *)
let test_cache_malformed_bits () =
  let one = E.Cache.key ~kind:"vco" [| 1.0 |] in
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = E.Cache.create () in
      E.Cache.store c one [| 2.0 |];
      E.Cache.save c path;
      let magic =
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
      in
      let oc = open_out path in
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "vco\t%d\t3ff0000000000000zz\t0x1p+1\n" min_int;
      Printf.fprintf oc "vco\t%d\t3ff0g00000000000\t0x1p+1\n" min_int;
      close_out oc;
      let loaded = E.Cache.load path in
      Alcotest.(check int) "both lines skipped" 0 (E.Cache.length loaded);
      check "no hit for x = [|1.0|]" true (E.Cache.find loaded one = None))

(* ---- cache loader: crash-freedom and cut files ------------------ *)

let with_cache_file bytes f =
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      f path)

let saved_text cache =
  let path = Filename.temp_file "hieropt" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      E.Cache.save cache path;
      In_channel.with_open_bin path In_channel.input_all)

(* a file cut inside its last value must not load a different float
   under the right key *)
let test_cache_cut_last_line () =
  let k = E.Cache.key ~kind:"vco" [| 1.0 |] in
  let c = E.Cache.create () in
  E.Cache.store c (E.Cache.key ~kind:"vco" [| 0.5 |]) [| 1.0 |];
  E.Cache.store c k [| 0x1.3333333333333p-2 |];
  let text = saved_text c in
  (* drop the newline and the value's last three characters *)
  let cut = String.sub text 0 (String.length text - 4) in
  with_cache_file cut @@ fun path ->
  let loaded = E.Cache.load path in
  Alcotest.(check int) "the complete line survives" 1 (E.Cache.length loaded);
  check "the cut line is skipped" true (E.Cache.find loaded k = None)

(* random caches: a few kinds, with and without sample ids, values of
   any length; NaN payloads do not survive text, so values avoid NaN *)
let gen_cache_entries =
  let open QCheck.Gen in
  let finite = map (fun v -> if Float.is_nan v then 0.0 else v) float in
  list_size (int_range 1 8)
    (quad
       (oneofl [ "eval:vco:0a1b2c3d"; "variation:0a1b2c3d-2009"; "k" ])
       (opt (int_bound 100))
       (array_size (int_bound 4) finite)
       (array_size (int_bound 6) finite))

let cache_of_entries entries =
  let c = E.Cache.create () in
  let keyed =
    List.map
      (fun (kind, sample, x, v) -> (E.Cache.key ?sample ~kind x, v))
      entries
  in
  List.iter (fun (k, v) -> E.Cache.store c k v) keyed;
  (c, keyed)

let bits v = Array.map Int64.bits_of_float v

let prop_cache_prefix_loads_subset =
  QCheck.Test.make ~count:300
    ~name:"cache prefix loads only saved entries"
    QCheck.(pair (make gen_cache_entries) (float_bound_inclusive 1.0))
    (fun (entries, frac) ->
      let c, keyed = cache_of_entries entries in
      let text = saved_text c in
      let cut =
        int_of_float (frac *. float_of_int (String.length text))
      in
      with_cache_file (String.sub text 0 cut) @@ fun path ->
      match E.Cache.load_if_exists path with
      | None -> true
      | Some loaded ->
        (* the original keys the prefix kept; first writer wins, so a
           key's original value is the one [c] holds *)
        let kept =
          List.sort_uniq compare
            (List.filter_map
               (fun (k, _) ->
                 if E.Cache.find loaded k <> None then Some k else None)
               keyed)
        in
        E.Cache.length loaded = List.length kept
        && List.for_all
             (fun k ->
               match (E.Cache.find loaded k, E.Cache.find c k) with
               | Some got, Some v -> bits got = bits v
               | _ -> false)
             kept)

let prop_cache_load_never_raises =
  let mutated =
    QCheck.Gen.(
      map3
        (fun entries flips cut ->
          let c, _ = cache_of_entries entries in
          let b = Bytes.of_string (saved_text c) in
          let n = Bytes.length b in
          List.iter
            (fun (pos, ch) -> Bytes.set b (pos mod n) ch)
            flips;
          Bytes.sub_string b 0 (cut mod (n + 1)))
        gen_cache_entries
        (list_size (int_bound 6) (pair nat char))
        nat)
  in
  QCheck.Test.make ~count:300 ~name:"cache load_if_exists never raises"
    QCheck.(oneof [ string; make ~print:Fun.id mutated ])
    (fun bytes ->
      with_cache_file bytes @@ fun path ->
      ignore (E.Cache.load_if_exists path);
      true)

(* ---- telemetry --------------------------------------------------- *)

let test_telemetry () =
  E.Telemetry.reset ();
  E.Telemetry.incr "a";
  E.Telemetry.incr ~by:4 "a";
  E.Telemetry.set "b" 9;
  Alcotest.(check int) "incr" 5 (E.Telemetry.counter "a");
  Alcotest.(check int) "set" 9 (E.Telemetry.counter "b");
  Alcotest.(check int) "unknown reads 0" 0 (E.Telemetry.counter "nope");
  let x = E.Telemetry.time "t" (fun () -> 41 + 1) in
  Alcotest.(check int) "time passes result through" 42 x;
  check "timer accumulated" true (E.Telemetry.timer "t" >= 0.0);
  E.Telemetry.warn ~key:"w" "threshold %d exceeded" 3;
  Alcotest.(check int) "warn counts" 1 (E.Telemetry.counter "w");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "line mentions counters" true (contains (E.Telemetry.line ()) "a=5");
  E.Telemetry.reset ();
  Alcotest.(check int) "reset" 0 (E.Telemetry.counter "a")

let test_telemetry_warn_atomic_lines () =
  (* warnings racing in from several domains must never tear: redirect
     stderr to a file, hammer it, and check every line came out whole *)
  E.Telemetry.reset ();
  let path = Filename.temp_file "hieropt_warn" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  let payload = String.make 160 'x' in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    (fun () ->
      let doms =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to 25 do
                  E.Telemetry.warn ~key:"warn.test" "d%d i%d %s" d i payload
                done))
      in
      List.iter Domain.join doms;
      flush stderr);
  Alcotest.(check int) "all warns counted" 100 (E.Telemetry.counter "warn.test");
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "100 whole lines" 100 (List.length !lines);
  let prefix = "WARNING [warn.test]: d" in
  List.iter
    (fun line ->
      let n = String.length line and np = String.length prefix in
      let starts = n >= np && String.sub line 0 np = prefix in
      let ends =
        n >= 160 && String.sub line (n - 160) 160 = payload
      in
      if not (starts && ends) then
        Alcotest.failf "torn warning line: %S" line)
    !lines;
  E.Telemetry.reset ()

let test_telemetry_concurrent_snapshot () =
  (* totals must be conserved under concurrent incr/add_time, and
     snapshots taken mid-flight must be internally consistent *)
  E.Telemetry.reset ();
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          List.iter
            (fun (_, v) ->
              match v with
              | `Counter c -> assert (c >= 0)
              | `Timer t -> assert (t >= 0.0))
            (E.Telemetry.snapshot ())
        done)
  in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              E.Telemetry.incr "snap.counter";
              E.Telemetry.add_time "snap.timer" 0.001
            done))
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "counter conserved" 4000
    (E.Telemetry.counter "snap.counter");
  (* identical addends commute exactly in floating point *)
  Alcotest.(check (float 1e-9)) "timer conserved" 4.0
    (E.Telemetry.timer "snap.timer");
  (match List.assoc_opt "snap.counter" (E.Telemetry.snapshot ()) with
  | Some (`Counter 4000) -> ()
  | _ -> Alcotest.fail "snapshot disagrees with counter accessor");
  E.Telemetry.reset ()

let test_telemetry_sharded_set () =
  (* counters shard per domain; [set] is absolute, so increments that
     landed in other domains' shards must not resurface after it *)
  E.Telemetry.reset ();
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> E.Telemetry.incr "shard.set" ~by:100))
  in
  List.iter Domain.join writers;
  Alcotest.(check int) "incrs merged across shards" 400
    (E.Telemetry.counter "shard.set");
  E.Telemetry.set "shard.set" 7;
  Alcotest.(check int) "set is absolute" 7 (E.Telemetry.counter "shard.set");
  let d = Domain.spawn (fun () -> E.Telemetry.incr "shard.set") in
  Domain.join d;
  Alcotest.(check int) "accumulation resumes after set" 8
    (E.Telemetry.counter "shard.set");
  E.Telemetry.reset ()

(* ---- cross-stack determinism: 1 worker vs 4 workers -------------- *)

let zdt1 =
  Repro_moo.Problem.create ~name:"zdt1-engine"
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
        constraint_violation = 0.0;
      })

let population_fingerprint pop =
  Array.to_list pop
  |> List.concat_map (fun ind ->
         Array.to_list ind.Repro_moo.Nsga2.x
         @ Array.to_list ind.Repro_moo.Nsga2.evaluation.Repro_moo.Problem.objectives)

let test_nsga2_deterministic_under_parallelism () =
  let optimise evaluator =
    Repro_moo.Nsga2.optimise
      ~options:
        {
          Repro_moo.Nsga2.default_options with
          population = 12;
          generations = 3;
        }
      ?evaluator zdt1 (Prng.create 4242)
  in
  let serial = optimise None in
  let run size =
    E.Pool.with_pool ~size (fun pool ->
        let cache = E.Cache.create () in
        let ev = Repro_moo.Problem.parallel_evaluator ~pool ~cache () in
        let pop = optimise (Some ev) in
        check "cache saw traffic" true (E.Cache.misses cache > 0);
        pop)
  in
  Alcotest.(check (list (float 0.0)))
    "serial = 1 worker"
    (population_fingerprint serial)
    (population_fingerprint (run 1));
  Alcotest.(check (list (float 0.0)))
    "serial = 4 workers"
    (population_fingerprint serial)
    (population_fingerprint (run 4));
  (* SPEA2 goes through the same injected-evaluator path *)
  let spea evaluator =
    Repro_moo.Spea2.optimise
      ~options:
        {
          Repro_moo.Spea2.default_options with
          population = 12;
          archive = 8;
          generations = 2;
        }
      ?evaluator zdt1 (Prng.create 17)
  in
  let spea_serial = spea None in
  E.Pool.with_pool ~size:4 (fun pool ->
      let ev = Repro_moo.Problem.parallel_evaluator ~pool () in
      Alcotest.(check (list (float 0.0)))
        "spea2 serial = 4 workers"
        (population_fingerprint spea_serial)
        (population_fingerprint (spea (Some ev))))

let test_monte_carlo_deterministic_under_parallelism () =
  let net = T.ring_vco ~vctl:0.5 T.vco_default in
  let trial perturbed =
    let s = Repro_circuit.Netlist.to_spice perturbed in
    if Hashtbl.hash s mod 5 = 0 then Error "synthetic failure" else Ok s
  in
  let run size =
    E.Pool.with_pool ~size (fun pool ->
        Repro_spice.Monte_carlo.run ~pool ~n:40 ~prng:(Prng.create 2009) net
          trial)
  in
  let a = run 1 and b = run 4 in
  check "samples byte-identical" true
    (a.Repro_spice.Monte_carlo.samples = b.Repro_spice.Monte_carlo.samples);
  Alcotest.(check int)
    "failures identical" a.Repro_spice.Monte_carlo.failures
    b.Repro_spice.Monte_carlo.failures;
  Alcotest.(check int) "all seeds used" 40 a.Repro_spice.Monte_carlo.seeds_used

let test_monte_carlo_degenerate_warning () =
  E.Telemetry.reset ();
  let net = T.ring_vco ~vctl:0.5 T.vco_default in
  let r =
    Repro_spice.Monte_carlo.run ~n:10 ~prng:(Prng.create 1) net (fun _ ->
        Error "dead")
  in
  Alcotest.(check int) "all trials failed" 10 r.Repro_spice.Monte_carlo.failures;
  Alcotest.(check int)
    "loud warning recorded" 1
    (E.Telemetry.counter "mc.degenerate_runs");
  (* healthy runs stay quiet *)
  ignore
    (Repro_spice.Monte_carlo.run ~n:10 ~prng:(Prng.create 1) net (fun _ ->
         Ok ()));
  Alcotest.(check int)
    "no new warning" 1
    (E.Telemetry.counter "mc.degenerate_runs");
  E.Telemetry.reset ()

let test_yield_deterministic_under_parallelism () =
  let row =
    match
      Hieropt.Pll_problem.evaluate_point Test_core.pll_cfg ~kvco:600e6
        ~ivco:6e-3 ~c1:10e-12 ~c2:0.5e-12 ~r1:4e3
    with
    | Ok row -> row
    | Error e -> Alcotest.fail ("evaluate_point failed: " ^ e)
  in
  let run size =
    E.Pool.with_pool ~size (fun pool ->
        Hieropt.Yield.behavioural ~n:24 ~pool ~prng:(Prng.create 55)
          Test_core.pll_cfg row)
  in
  check "yield estimate identical at 1 vs 4 workers" true (run 1 = run 4)

let suite =
  [
    Alcotest.test_case "config: jobs resolution" `Quick test_config_jobs;
    Alcotest.test_case "config: HIEROPT_FULL flag" `Quick test_config_flag;
    Alcotest.test_case "parmap matches serial map" `Quick
      test_parmap_matches_serial;
    Alcotest.test_case "parmap preserves order" `Quick
      test_parmap_order_preserved;
    Alcotest.test_case "parmap empty + exception" `Quick
      test_parmap_empty_and_exception;
    Alcotest.test_case "parmap nested regions serialise" `Quick
      test_parmap_nested;
    Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown;
    Alcotest.test_case "seeded map worker-count independent" `Quick
      test_map_seeded_deterministic;
    Alcotest.test_case "cache key canonicalisation" `Quick
      test_cache_key_canonical;
    Alcotest.test_case "cache counters + FIFO eviction" `Quick
      test_cache_counters_eviction;
    Alcotest.test_case "cache save/load roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "telemetry registry" `Quick test_telemetry;
    Alcotest.test_case "telemetry warn lines are atomic" `Quick
      test_telemetry_warn_atomic_lines;
    Alcotest.test_case "telemetry snapshot under concurrency" `Quick
      test_telemetry_concurrent_snapshot;
    Alcotest.test_case "telemetry sharded set semantics" `Quick
      test_telemetry_sharded_set;
    Alcotest.test_case "nsga2/spea2 identical at 1 vs 4 workers" `Quick
      test_nsga2_deterministic_under_parallelism;
    Alcotest.test_case "monte-carlo identical at 1 vs 4 workers" `Quick
      test_monte_carlo_deterministic_under_parallelism;
    Alcotest.test_case "monte-carlo degenerate-run warning" `Quick
      test_monte_carlo_degenerate_warning;
    Alcotest.test_case "yield identical at 1 vs 4 workers" `Quick
      test_yield_deterministic_under_parallelism;
    Alcotest.test_case "cache concurrent access" `Quick test_cache_concurrent;
    Alcotest.test_case "cache store replaces in place" `Quick
      test_cache_store_replaces;
    Alcotest.test_case "cache skips malformed key bits" `Quick
      test_cache_malformed_bits;
    Alcotest.test_case "cache skips a cut last line" `Quick
      test_cache_cut_last_line;
    QCheck_alcotest.to_alcotest prop_cache_prefix_loads_subset;
    QCheck_alcotest.to_alcotest prop_cache_load_never_raises;
  ]
