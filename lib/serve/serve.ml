(** Batch solver service (see serve.mli for the contract).

    Concurrency layout: [submit]/[try_submit]/[peek]/[cancel]/[stats] run on
    caller domains; one scheduler domain owns batching, tiling, solving, and
    the trace.  All shared state (queue, results, counters, the latency
    histogram) is guarded by [mutex]; [not_full] wakes blocked submitters
    when the scheduler takes a batch or a cancellation frees a slot.

    The scheduler never polls.  The stdlib [Condition] has no timed wait, so
    the batching window is implemented with a self-pipe: the scheduler
    blocks in [Unix.select] on the read end — indefinitely while the queue
    is empty, for the window remainder (at most [max_sleep_s] per select)
    while a batch is filling — and [submit]/[cancel]/[drain] write one wake
    byte after mutating the queue.  An idle service costs zero CPU, and a
    submit that fills every solver thread (at one thread: any submit to an
    idle scheduler) dispatches in microseconds instead of waiting out a
    poll quantum. *)

module Trace = Qac_diag.Trace
module Hist = Qac_diag.Hist
module Tiler = Qac_embed.Tiler
module Cache = Qac_embed.Cache
module Family = Qac_chimera.Family
module Sampler = Qac_anneal.Sampler
open Qac_ising

type job = {
  id : string;
  problem : Problem.t;
  timeout_ms : float option;
}

type status =
  | Done
  | Timed_out
  | Canceled
  | Failed of string

type result = {
  id : string;
  status : status;
  response : Sampler.response option;
  batch : int;
  wait_seconds : float;
  solve_seconds : float;
}

type stats = {
  batches : int;
  full_flushes : int;
  idle_flushes : int;
  window_flushes : int;
  drain_flushes : int;
  jobs_done : int;
  placed : int;
  deferrals : int;
  retries : int;
  failures : int;
  timeouts : int;
  canceled : int;
  coalesced : int;
  queue_depth : int;
  mean_occupancy : float;
  jobs_per_second : float;
}

(* A result as kept until {!drain}: the response's samples move out of it
   into one [packed] string, each sample a 24-byte header (spin count,
   energy bits, occurrences) then its spins one bit each (set for +1).
   {!restore} rebuilds the response on every read.  A list of per-sample
   byte strings cost about 18 words a sample; this costs 4 plus a bit per
   spin, and every finished result is retained. *)
type retained = {
  result : result;
  packed : Bytes.t;
}

let sample_header = 24

let packed_size (s : Sampler.sample) =
  sample_header + ((Array.length s.Sampler.spins + 7) / 8)

let pack_response = function
  | None -> (None, Bytes.empty)
  | Some (r : Sampler.response) ->
    let b =
      Bytes.make (List.fold_left (fun acc s -> acc + packed_size s) 0 r.Sampler.samples) '\000'
    in
    ignore
      (List.fold_left
         (fun off (s : Sampler.sample) ->
            Bytes.set_int64_le b off (Int64.of_int (Array.length s.Sampler.spins));
            Bytes.set_int64_le b (off + 8) (Int64.bits_of_float s.Sampler.energy);
            Bytes.set_int64_le b (off + 16) (Int64.of_int s.Sampler.num_occurrences);
            Array.iteri
              (fun i spin ->
                 if spin > 0 then begin
                   let k = off + sample_header + (i lsr 3) in
                   Bytes.set_uint8 b k (Bytes.get_uint8 b k lor (1 lsl (i land 7)))
                 end)
              s.Sampler.spins;
            off + packed_size s)
         0 r.Sampler.samples);
    (Some { r with Sampler.samples = [] }, b)

let restore { result; packed } =
  match result.response with
  | None -> result
  | Some r ->
    let rec unpack off =
      if off >= Bytes.length packed then []
      else begin
        let n = Int64.to_int (Bytes.get_int64_le packed off) in
        let bits = off + sample_header in
        let sample =
          { Sampler.spins =
              Array.init n (fun i ->
                  if Bytes.get_uint8 packed (bits + (i lsr 3)) land (1 lsl (i land 7)) <> 0 then 1
                  else -1);
            energy = Int64.float_of_bits (Bytes.get_int64_le packed (off + 8));
            num_occurrences = Int64.to_int (Bytes.get_int64_le packed (off + 16)) }
        in
        sample :: unpack (bits + ((n + 7) / 8))
      end
    in
    { result with response = Some { r with Sampler.samples = unpack 0 } }

type pending = {
  pjob : job;
  index : int;  (* submission order; doubles as the caller-facing ticket *)
  key : string;  (* {!coalesce_key} of [pjob] *)
  submitted_at : float;
  deadline : float option;  (* absolute; fixed at submit *)
  tries : int;  (* embedding-failure retries so far *)
  ladder : Tiler.ladder option;
      (* run once, at the job's first batch, and kept across deferrals;
         a retry (new seed) clears it *)
}

(* One delivery of a coalesced computation's result.  The leader's own
   delivery is a subscriber like any follower's, so cancellation treats
   them uniformly. *)
type subscriber = {
  ticket : int;
  sub_id : string;
  joined_at : float;
}

type t = {
  mutex : Mutex.t;
  not_full : Condition.t;
  wake_r : Unix.file_descr;  (* scheduler's select target *)
  wake_w : Unix.file_descr;  (* non-blocking; written by submit/cancel/drain *)
  queue_capacity : int;
  batch_jobs : int;
  batch_window_s : float;
  num_threads : int;
  tiler_params : Tiler.params;
  chain_break : Qac_embed.Embedding.chain_break;
  embed_cache : Cache.t option;
  trace : Trace.t option;
  solver : deadline:float option -> Problem.t -> Sampler.response;
  family : Family.t;  (* built once; its local fabrics are shared by every batch *)
  latency : Hist.t;  (* submit -> result recorded; guarded by [mutex] *)
  mutable queue : pending list;  (* head = next to serve *)
  mutable next_index : int;
  mutable draining : bool;
  mutable pipe_closed : bool;
  results : (int, retained) Hashtbl.t;
  (* In-flight coalescing, all mutex-guarded.  A *work* is a queue entry
     (identified by its leader's ticket = [pending.index]); while it is
     queued or in flight, [active] maps its coalesce key to it and [works]
     maps it to that key and its deliveries in attach order (leader
     first); [work_of_ticket] lets [cancel] find any ticket's work. *)
  active : (string, int) Hashtbl.t;
  works : (int, string * subscriber list) Hashtbl.t;
  work_of_ticket : (int, int) Hashtbl.t;
  (* Mutex-guarded, like the two accumulators the derived rates come from.
     The derived fields of [counts] stay 0; {!stats} fills them in. *)
  mutable counts : stats;
  mutable occupancy_sum : float;
  mutable busy_seconds : float;
  mutable scheduler : unit Domain.t option;
}

let now = Unix.gettimeofday

(* A job whose deadline is now has no time left to solve. *)
let expired deadline t =
  match deadline with None -> false | Some d -> t >= d

(* Per-(job, retry) tiling seed: retry 0 is exactly [params.seed], so a
   never-failing job tiles identically to a plain [Tiler.tile] call — the
   composition-invariance contract is preserved. *)
let retry_seed base tries = base + (7919 * tries)

(* Embedding-failure retries, each with a fresh seed, before a job fails. *)
let max_retries = 2

(* Full-content digest for request coalescing: variable count, every
   coefficient's exact bit pattern, and the relative timeout.  Within one
   service the graph, solver, tiler params and base seed are fixed, so two
   jobs sharing this key are the same computation and the composition
   invariance of the tiler makes their responses bit-identical — one solve
   can serve both. *)
let coalesce_key (job : job) =
  let b = Buffer.create 1024 in
  let add_int v = Buffer.add_int64_le b (Int64.of_int v) in
  let add_float v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  let p = job.problem in
  add_int p.Problem.num_vars;
  add_float p.Problem.offset;
  Array.iter add_float p.Problem.h;
  Array.iter
    (fun ((i, j), v) ->
       add_int i;
       add_int j;
       add_float v)
    p.Problem.couplers;
  (match job.timeout_ms with
   | None -> add_int 0
   | Some ms ->
     add_int 1;
     add_float ms);
  Digest.string (Buffer.contents b)

(* --- Self-pipe wakeup ------------------------------------------------------- *)

let wake_buf = Bytes.make 1 '\001'

(* Callable from any domain, with or without [mutex] held.  A full pipe
   means wakeups are already pending, so dropping the byte is harmless. *)
let wake t =
  if not t.pipe_closed then
    try ignore (Unix.write t.wake_w wake_buf 0 1) with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
      -> ()

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  loop ()

(* The longest single select.  A timeout past what the kernel accepts
   (a huge or infinite window) raises [EINVAL]; a capped sleep just wakes
   to re-check the window. *)
let max_sleep_s = 60.0

(* Block until woken or [timeout] elapses ([None] = forever). *)
let wait_wake t timeout =
  let tv =
    match timeout with None -> -1.0 | Some s -> Float.min max_sleep_s (Float.max s 0.0)
  in
  match Unix.select [ t.wake_r ] [] [] tv with
  | [], _, _ -> ()
  | _ -> drain_wake_pipe t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* --- Result recording ------------------------------------------------------- *)

(* Requires [mutex] held.  Drop a work: its [works] entry and its [active]
   entry, which maps its key to it for as long as it is live. *)
let release t ~work ~key =
  Hashtbl.remove t.works work;
  Hashtbl.remove t.active key

(* Requires [mutex] held: the results table and the latency histogram are
   written together.  Latency is end-to-end (submit to recording), so queue
   wait, tiling, solving and unembedding all count — what a client sees.

   One call terminates a *work*: the shared outcome fans out to every
   remaining subscriber (the leader and any coalesced followers), each
   under its own ticket, id and wait clock.  A work missing from [works]
   was released when its last delivery canceled while it was in flight;
   their Canceled results stand and the late outcome is dropped. *)
let record t (p : pending) ~status ~response ~batch ~batch_start ~solve_seconds =
  match Hashtbl.find_opt t.works p.index with
  | None -> ()
  | Some (_, subs) ->
    let finished = now () in
    (* Packed once; every subscriber's retained result shares it. *)
    let response, packed = pack_response response in
    List.iter
      (fun s ->
         Hist.add t.latency (finished -. s.joined_at);
         Hashtbl.replace t.results s.ticket
           { result =
               { id = s.sub_id;
                 status;
                 response;
                 batch;
                 (* A follower can attach after its batch started; its wait
                    is then the full window, never negative. *)
                 wait_seconds = Float.max 0.0 (batch_start -. s.joined_at);
                 solve_seconds };
             packed };
         Hashtbl.remove t.work_of_ticket s.ticket)
      subs;
    release t ~work:p.index ~key:p.key

let rec take n = function
  | [] -> ([], [])
  | rest when n = 0 -> ([], rest)
  | x :: rest ->
    let head, tail = take (n - 1) rest in
    (x :: head, tail)

(* One flush: already-expired jobs fail fast, the rest tile onto the graph;
   placed jobs solve with their own deadlines, deferred jobs requeue at the
   front (first-of-batch always sees an empty floor, so progress is
   guaranteed) with their ladders, embedding failures retry with a fresh
   seed. *)
let process_batch t batch ~batch_no ~queue_depth =
  let batch_start = now () in
  let stale, live =
    List.partition (fun p -> expired p.deadline batch_start) batch
  in
  Mutex.lock t.mutex;
  List.iter
    (fun p ->
       t.counts <- { t.counts with timeouts = t.counts.timeouts + 1 };
       record t p ~status:Timed_out ~response:None ~batch:(-1) ~batch_start
         ~solve_seconds:0.0)
    stale;
  Mutex.unlock t.mutex;
  if live <> [] then begin
    let jobs = Array.of_list live in
    let problems = Array.map (fun p -> p.pjob.problem) jobs in
    Trace.with_span_opt t.trace "batch" (fun () ->
        let count k v = Trace.counter_opt t.trace k v in
        count "jobs" (Array.length jobs);
        count "queue-depth" queue_depth;
        (* Ladders only for jobs new to the floor (or retrying); a deferred
           job's (block, embedding) is a pure function of the job and its
           seed, so the one it brought back is the one it would find. *)
        let fresh =
          List.init (Array.length jobs) Fun.id
          |> List.filter (fun i -> Option.is_none jobs.(i).ladder)
          |> Array.of_list
        in
        let found =
          Tiler.ladders ~params:t.tiler_params ?cache:t.embed_cache
            ~seeds:
              (Array.map
                 (fun i -> retry_seed t.tiler_params.Tiler.seed jobs.(i).tries)
                 fresh)
            ~num_threads:t.num_threads t.family
            (Array.map (fun i -> problems.(i)) fresh)
        in
        Array.iteri (fun k i -> jobs.(i) <- { (jobs.(i)) with ladder = Some found.(k) }) fresh;
        let tiling =
          Tiler.place ~params:t.tiler_params t.family problems
            (Array.map (fun p -> Option.get p.ladder) jobs)
        in
        let placed, deferred, failed = Tiler.counts tiling in
        let occupancy = Tiler.occupancy tiling in
        count "placed" placed;
        count "deferred" deferred;
        count "failed" failed;
        count "occupancy-pct" (int_of_float (occupancy *. 100.0));
        let deadline i = jobs.(i).deadline in
        let responses =
          Tiler.solve ~num_threads:t.num_threads ~chain_break:t.chain_break
            ~deadline ~solver:t.solver tiling
        in
        let requeue = ref [] in
        Mutex.lock t.mutex;
        t.occupancy_sum <- t.occupancy_sum +. occupancy;
        Array.iteri
          (fun i p ->
             match tiling.Tiler.outcomes.(i) with
             | Tiler.Placed _ ->
               let response = List.assoc i responses in
               let c = { t.counts with placed = t.counts.placed + 1 } in
               let status, c =
                 if response.Sampler.timed_out then
                   (Timed_out, { c with timeouts = c.timeouts + 1 })
                 else (Done, c)
               in
               t.counts <- c;
               record t p ~status ~response:(Some response) ~batch:batch_no
                 ~batch_start ~solve_seconds:response.Sampler.elapsed_seconds
             | Tiler.Deferred ->
               t.counts <- { t.counts with deferrals = t.counts.deferrals + 1 };
               requeue := p :: !requeue
             | Tiler.Failed msg ->
               if p.tries < max_retries then begin
                 t.counts <- { t.counts with retries = t.counts.retries + 1 };
                 requeue := { p with tries = p.tries + 1; ladder = None } :: !requeue
               end
               else begin
                 t.counts <- { t.counts with failures = t.counts.failures + 1 };
                 record t p ~status:(Failed msg) ~response:None ~batch:batch_no
                   ~batch_start ~solve_seconds:0.0
               end)
          jobs;
        (* Requeue at the front, preserving relative order. *)
        t.queue <- List.rev !requeue @ t.queue;
        Mutex.unlock t.mutex)
  end;
  Mutex.lock t.mutex;
  t.busy_seconds <- t.busy_seconds +. (now () -. batch_start);
  Mutex.unlock t.mutex

let stats_locked t =
  let c = t.counts in
  let jobs_done = Hashtbl.length t.results in
  { c with
    jobs_done;
    queue_depth = List.length t.queue;
    mean_occupancy =
      (if c.batches = 0 then 0.0 else t.occupancy_sum /. float_of_int c.batches);
    jobs_per_second =
      (if t.busy_seconds <= 0.0 then 0.0
       else float_of_int jobs_done /. t.busy_seconds) }

let stats t =
  Mutex.lock t.mutex;
  let s = stats_locked t in
  Mutex.unlock t.mutex;
  s

let fields s =
  let int k v = (k, float_of_int v) in
  [ int "batches" s.batches; int "full_flushes" s.full_flushes;
    int "idle_flushes" s.idle_flushes; int "window_flushes" s.window_flushes;
    int "drain_flushes" s.drain_flushes; int "jobs_done" s.jobs_done;
    int "placed" s.placed;
    int "deferrals" s.deferrals; int "retries" s.retries;
    int "failures" s.failures; int "timeouts" s.timeouts;
    int "canceled" s.canceled; int "coalesced" s.coalesced;
    int "queue_depth" s.queue_depth; ("mean_occupancy", s.mean_occupancy);
    ("jobs_per_second", s.jobs_per_second) ]

let latency_fields h =
  [ ("seconds_count", float_of_int (Hist.count h)); ("seconds_sum", Hist.sum h);
    ("p50_seconds", Hist.p50 h); ("p90_seconds", Hist.p90 h); ("p99_seconds", Hist.p99 h) ]

let latency t =
  Mutex.lock t.mutex;
  let h = Hist.copy t.latency in
  Mutex.unlock t.mutex;
  h

(* Final service-wide summary, written from the scheduler domain just
   before it exits (the trace is single-domain by contract). *)
let write_summary t =
  Option.iter
    (fun trace ->
       Trace.set_summaries trace ~prefix:"serve-" (fields (stats t));
       Trace.set_summaries trace ~prefix:"serve-latency-" (latency_fields (latency t));
       Option.iter
         (fun c -> Trace.set_summaries trace ~prefix:"embed-cache-" (Cache.fields (Cache.stats c)))
         t.embed_cache)
    t.trace

let rec scheduler_loop t =
  Mutex.lock t.mutex;
  match t.queue with
  | [] ->
    if t.draining then begin
      Mutex.unlock t.mutex;
      write_summary t
    end
    else begin
      Mutex.unlock t.mutex;
      wait_wake t None;  (* sleep until a submit or drain *)
      scheduler_loop t
    end
  | oldest :: _ ->
    let depth = List.length t.queue in
    let window_left = t.batch_window_s -. (now () -. oldest.submitted_at) in
    (* The scheduler is idle here.  Placed jobs solve one after another on
       each of [num_threads] threads, and a job's answer does not depend on
       its batch-mates, so once the queue fills every thread, waiting for
       more finishes nobody sooner.  The first cause that holds is the one
       counted. *)
    let cause =
      if depth >= t.batch_jobs then Some `Full
      else if depth >= t.num_threads then Some `Idle
      else if window_left <= 0.0 then Some `Window
      else if t.draining then Some `Drain
      else None
    in
    match cause with
    | Some cause ->
      let batch_no = t.counts.batches in
      let c = { t.counts with batches = batch_no + 1 } in
      t.counts <-
        (match cause with
         | `Full -> { c with full_flushes = c.full_flushes + 1 }
         | `Idle -> { c with idle_flushes = c.idle_flushes + 1 }
         | `Window -> { c with window_flushes = c.window_flushes + 1 }
         | `Drain -> { c with drain_flushes = c.drain_flushes + 1 });
      let batch, rest = take t.batch_jobs t.queue in
      t.queue <- rest;
      Condition.broadcast t.not_full;
      Mutex.unlock t.mutex;
      process_batch t batch ~batch_no ~queue_depth:depth;
      scheduler_loop t
    | None ->
      Mutex.unlock t.mutex;
      (* Sleep out the window remainder; an early wake (threads filled,
         drain, cancel) re-evaluates the flush condition immediately. *)
      wait_wake t (Some window_left);
      scheduler_loop t

let create ?(queue_capacity = 256) ?(batch_jobs = 16) ?(batch_window_s = 0.01)
    ?(num_threads = 1) ?(tiler_params = Tiler.default_params)
    ?(chain_break = Qac_embed.Embedding.Vote) ?embed_cache ?trace ~solver ~graph () =
  if queue_capacity < 1 then invalid_arg "Serve.create: queue_capacity must be >= 1";
  if batch_jobs < 1 then invalid_arg "Serve.create: batch_jobs must be >= 1";
  if Float.is_nan batch_window_s || batch_window_s < 0.0 then
    invalid_arg "Serve.create: batch_window_s must be a number >= 0";
  if num_threads < 1 then invalid_arg "Serve.create: num_threads must be >= 1";
  (* Rejects an unsupported graph here, before any job can be queued. *)
  let family = Family.of_topology graph in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    { mutex = Mutex.create ();
      not_full = Condition.create ();
      wake_r;
      wake_w;
      queue_capacity;
      batch_jobs;
      batch_window_s;
      num_threads;
      tiler_params;
      chain_break;
      embed_cache;
      trace;
      solver;
      family;
      latency = Hist.create ();
      queue = [];
      next_index = 0;
      draining = false;
      pipe_closed = false;
      results = Hashtbl.create 64;
      active = Hashtbl.create 64;
      works = Hashtbl.create 64;
      work_of_ticket = Hashtbl.create 64;
      counts =
        { batches = 0; full_flushes = 0; idle_flushes = 0; window_flushes = 0;
          drain_flushes = 0; jobs_done = 0; placed = 0; deferrals = 0; retries = 0;
          failures = 0; timeouts = 0; canceled = 0; coalesced = 0; queue_depth = 0;
          mean_occupancy = 0.0; jobs_per_second = 0.0 };
      occupancy_sum = 0.0;
      busy_seconds = 0.0;
      scheduler = None }
  in
  t.scheduler <- Some (Domain.spawn (fun () -> scheduler_loop t));
  t

(* Requires [mutex] held; enqueues a fresh work and wakes the scheduler. *)
let enqueue_locked t ~key (job : job) =
  let submitted_at = now () in
  let pending =
    { pjob = job;
      index = t.next_index;
      key;
      submitted_at;
      deadline = Option.map (fun ms -> submitted_at +. (ms /. 1000.0)) job.timeout_ms;
      tries = 0;
      ladder = None }
  in
  t.next_index <- t.next_index + 1;
  t.queue <- t.queue @ [ pending ];
  Hashtbl.replace t.active key pending.index;
  Hashtbl.replace t.works pending.index
    (key, [ { ticket = pending.index; sub_id = job.id; joined_at = submitted_at } ]);
  Hashtbl.replace t.work_of_ticket pending.index pending.index;
  wake t;
  pending.index

(* Requires [mutex] held.  When an identical computation is already live
   (queued or in flight), attach as a follower: a fresh ticket that shares
   the leader's eventual response without consuming a queue slot or a
   solve.  Followers ride the leader's absolute deadline. *)
let try_attach_locked t ~key (job : job) =
  match Hashtbl.find_opt t.active key with
  | None -> None
  | Some work ->
    let ticket = t.next_index in
    t.next_index <- ticket + 1;
    let _, subs = Hashtbl.find t.works work in
    Hashtbl.replace t.works work
      (key, subs @ [ { ticket; sub_id = job.id; joined_at = now () } ]);
    Hashtbl.replace t.work_of_ticket ticket work;
    t.counts <- { t.counts with coalesced = t.counts.coalesced + 1 };
    Some ticket

(* Requires [mutex] held.  Attach or enqueue, blocking while the queue is
   full; an identical job may arrive while we are blocked, so each wake
   tries to attach again.  [None] once a drain has started. *)
let rec submit_locked t ~key job =
  if t.draining then None
  else
    match try_attach_locked t ~key job with
    | Some ticket -> Some ticket
    | None when List.length t.queue >= t.queue_capacity ->
      Condition.wait t.not_full t.mutex;
      submit_locked t ~key job
    | None -> Some (enqueue_locked t ~key job)

let submit_all t jobs =
  let keyed = List.map (fun job -> (coalesce_key job, job)) jobs in
  Mutex.lock t.mutex;
  let tickets = List.map (fun (key, job) -> submit_locked t ~key job) keyed in
  Mutex.unlock t.mutex;
  List.map
    (function Some ticket -> ticket | None -> invalid_arg "Serve.submit: service is draining")
    tickets

let submit_ticket t job = List.hd (submit_all t [ job ])

let submit t job = ignore (submit_ticket t job)

let try_submit t job =
  let key = coalesce_key job in
  Mutex.lock t.mutex;
  if t.draining then begin
    Mutex.unlock t.mutex;
    invalid_arg "Serve.try_submit: service is draining"
  end;
  let r =
    (* Coalescing needs no queue slot, so a duplicate is admitted even at
       capacity — it adds no work. *)
    match try_attach_locked t ~key job with
    | Some ticket -> Some ticket
    | None ->
      if List.length t.queue >= t.queue_capacity then None
      else Some (enqueue_locked t ~key job)
  in
  Mutex.unlock t.mutex;
  r

let peek t ticket =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.results ticket in
  Mutex.unlock t.mutex;
  Option.map restore r

(* Cancel one *delivery*.  A follower may leave at any point before its
   result is recorded — it owns no work.  The leader's delivery can be
   withdrawn while its work is queued; the work itself is released only
   when no subscribers remain (coalescing contract: a cancellation
   releases the underlying solve only when no followers remain), and a
   queued one leaves the queue.  An in-flight leader is refused: in-flight
   work is never interrupted.  [work_of_ticket] holds exactly the tickets
   of live deliveries, so a finished ticket is not found. *)
let cancel t ticket =
  Mutex.lock t.mutex;
  let canceled =
    match Hashtbl.find_opt t.work_of_ticket ticket with
    | None -> false
    | Some work ->
      let in_queue = List.exists (fun p -> p.index = work) t.queue in
      if ticket = work && not in_queue then false
      else begin
        let key, subs = Hashtbl.find t.works work in
        let sub = List.find (fun s -> s.ticket = ticket) subs in
        let at = now () in
        Hist.add t.latency (at -. sub.joined_at);
        Hashtbl.replace t.results ticket
          { result =
              { id = sub.sub_id;
                status = Canceled;
                response = None;
                batch = -1;
                wait_seconds = at -. sub.joined_at;
                solve_seconds = 0.0 };
            packed = Bytes.empty };
        t.counts <- { t.counts with canceled = t.counts.canceled + 1 };
        Hashtbl.remove t.work_of_ticket ticket;
        (match List.filter (fun s -> s.ticket <> ticket) subs with
         | [] ->
           release t ~work ~key;
           if in_queue then begin
             t.queue <- List.filter (fun p -> p.index <> work) t.queue;
             Condition.broadcast t.not_full;
             wake t
           end
         | rest -> Hashtbl.replace t.works work (key, rest));
        true
      end
  in
  Mutex.unlock t.mutex;
  canceled

let drain t =
  Mutex.lock t.mutex;
  t.draining <- true;
  Condition.broadcast t.not_full;
  wake t;
  let scheduler = t.scheduler in
  t.scheduler <- None;
  Mutex.unlock t.mutex;
  (match scheduler with Some d -> Domain.join d | None -> ());
  Mutex.lock t.mutex;
  if not t.pipe_closed then begin
    t.pipe_closed <- true;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end;
  let results =
    List.init t.next_index (fun i ->
        match Hashtbl.find_opt t.results i with
        | Some r -> restore r
        | None ->
          (* Unreachable: every submitted job is recorded before the
             scheduler exits. *)
          { id = Printf.sprintf "#%d" i;
            status = Failed "lost";
            response = None;
            batch = -1;
            wait_seconds = 0.0;
            solve_seconds = 0.0 })
  in
  Mutex.unlock t.mutex;
  results
