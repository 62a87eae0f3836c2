type t = {
  size : int;
  mutable domains : unit Domain.t array;
  mutex : Mutex.t;
  ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
}

(* Set while a task runs on a worker domain: nested parallel calls fall
   back to the serial path instead of deadlocking on a busy pool. *)
let in_worker = Domain.DLS.new_key (fun () -> false)
let inside_worker () = Domain.DLS.get in_worker

let worker_loop t () =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock t.mutex;
    let rec await () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if not t.live then None
      else begin
        Condition.wait t.ready t.mutex;
        await ()
      end
    in
    let task = await () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
      (try task () with _ -> ());
      next ()
  in
  next ()

let create ?size () =
  let size = match size with Some s -> max 1 s | None -> Config.jobs () in
  let t =
    {
      size;
      domains = [||];
      mutex = Mutex.create ();
      ready = Condition.create ();
      queue = Queue.create ();
      live = true;
    }
  in
  (* the caller participates in every parallel region, so a pool of
     [size] workers spawns [size - 1] domains *)
  t.domains <- Array.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let size t = t.size

(* time-in-queue between [submit] and a worker picking the task up —
   the pool-level starvation signal (always-on: histograms never touch
   evaluation state, matching the serve latency instrumentation) *)
let queue_wait = Repro_obs.Histogram.get "pool.queue_wait"

let submit t task =
  let enqueued = Unix.gettimeofday () in
  let task () =
    Repro_obs.Histogram.observe queue_wait (Unix.gettimeofday () -. enqueued);
    task ()
  in
  Mutex.lock t.mutex;
  if not t.live then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.ready;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.ready;
  Mutex.unlock t.mutex;
  if was_live then Array.iter Domain.join t.domains

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_pool = ref None

let get_default () =
  match !default_pool with
  | Some t when t.live -> t
  | _ ->
    let t = create () in
    (match !default_pool with
    | None -> at_exit (fun () -> match !default_pool with
        | Some p -> shutdown p
        | None -> ())
    | Some _ -> ());
    default_pool := Some t;
    t

(* How many domains are inside a chunk right now; sampled into a Chrome
   counter track so a trace shows utilization (and starvation) over
   time.  Only touched while tracing is on. *)
let busy = Atomic.make 0

(* Chunked index dispatch: every participating domain repeatedly claims a
   contiguous index range from a shared counter and runs [body] on it.
   [body] must not raise (callers wrap exceptions themselves) and writes
   only to per-index slots, so any worker count yields the same output. *)
let run_items ?chunk t n body =
  if n > 0 then begin
    let workers = min t.size n in
    if workers <= 1 || inside_worker () then
      Repro_obs.Trace.span "pool.serial"
        ~args:[ ("items", string_of_int n) ]
        (fun () ->
          for i = 0 to n - 1 do
            body i
          done)
    else begin
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 (n / (workers * 8))
      in
      let next = Atomic.make 0 in
      let completed = Atomic.make 0 in
      let m = Mutex.create () in
      let finished = Condition.create () in
      let driver () =
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next chunk in
          if start >= n then continue := false
          else begin
            let stop = min n (start + chunk) in
            (* [traced] sampled once so the counter track stays balanced
               even if tracing stops mid-chunk *)
            let traced = Repro_obs.Trace.enabled () in
            if traced then
              Repro_obs.Trace.counter "pool.busy_domains"
                (Atomic.fetch_and_add busy 1 + 1);
            Repro_obs.Trace.span "pool.chunk"
              ~args:
                [
                  ("first", string_of_int start);
                  ("items", string_of_int (stop - start));
                ]
              (fun () ->
                for i = start to stop - 1 do
                  body i
                done);
            if traced then
              Repro_obs.Trace.counter "pool.busy_domains"
                (Atomic.fetch_and_add busy (-1) - 1);
            let done_now =
              Atomic.fetch_and_add completed (stop - start) + (stop - start)
            in
            if done_now >= n then begin
              Mutex.lock m;
              Condition.broadcast finished;
              Mutex.unlock m
            end
          end
        done
      in
      for _ = 2 to workers do
        submit t driver
      done;
      driver ();
      Mutex.lock m;
      while Atomic.get completed < n do
        Condition.wait finished m
      done;
      Mutex.unlock m
    end
  end
