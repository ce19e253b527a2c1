(** Batch solver service: a job scheduler that packs independent Ising
    problems onto one annealer-shaped graph ({!Qac_embed.Tiler}) and serves
    them with deadlines.

    Jobs enter a bounded submission queue — {!submit} blocks when it is full
    (backpressure), {!try_submit} rejects instead (the admission-control
    path the shard pool builds on).  A scheduler running on its own OCaml
    domain flushes the queue into batches, tiles each batch onto the graph,
    and solves the placed jobs concurrently.

    {b Flush contract.}  The scheduler is work-conserving: whenever it is
    idle (no batch in flight), a batch of up to [batch_jobs] jobs leaves as
    soon as the first of these holds, and that cause is counted in
    {!stats}:
    - [full]: [batch_jobs] jobs are pending;
    - [idle]: the pending jobs fill every solver thread
      ([queue depth >= num_threads]);
    - [window]: the oldest pending job has waited [batch_window_s];
    - [drain]: {!drain} was called.

    A batch solves its placed jobs one after another on each of
    [num_threads] threads, and a job's answer does not depend on its
    batch-mates, so waiting for more batch-mates than threads would finish
    nobody sooner.  At one thread an idle service dispatches a lone job at
    once, and jobs that arrive while a batch is in flight leave together
    when it ends; at [T > 1] threads, [batch_window_s] bounds how long a
    job waits for [T] batch-mates.  The scheduler is event-driven, not
    polling: it sleeps in [select] on a self-pipe that submissions,
    cancellations and drain poke, so an idle service burns no CPU and a
    flushing submit dispatches immediately rather than after a poll
    quantum.

    Per-job deadlines are enforced twice: a job whose deadline passes while
    queued is failed without solving, and the deadline is handed to the
    solver so an in-flight job returns best-so-far partial results
    ({!Qac_anneal.Sampler.response.timed_out}).

    Jobs the tiler defers (no floor space in this batch) requeue at the
    {e front}, which guarantees progress: the first job of a batch always
    sees an empty floor.  A job's embedding ladder
    ({!Qac_embed.Tiler.ladders}) runs once, in its first batch, and its
    (block, embedding) rides along across deferrals.  Jobs whose embedding
    fails retry with a fresh tiling seed — and a fresh ladder — up to
    twice before failing for good.

    The solver is a closure so this layer stays independent of the compiler
    ([Qac_core]); callers typically wrap [Pipeline.dispatch_solver].  For
    the demuxed responses to be reproducible — bit-identical whether a job
    runs alone or inside any batch, at any [num_threads] — the solver must
    be a pure function of its arguments (the stock samplers are, given a
    fixed seed).

    {b Request coalescing.}  That same purity makes duplicate work
    detectable: two jobs with bit-identical content (every coefficient's
    exact bits, plus the relative timeout) are the same computation under
    this service's fixed solver, graph, tiler params and seed.  A job that
    matches one already queued or in flight does not enqueue; it {e
    attaches} as a follower to the live job's (the {e leader}'s) work and
    receives its own ticket.  One solve runs; its response fans out to the
    leader and every follower, bit-identical, each under its own ticket
    and id with its own wait clock.  Followers consume no queue slot —
    {!try_submit} admits a duplicate even at capacity — and ride the
    leader's absolute deadline.  {!cancel} removes a single delivery; the
    underlying work is released only when its last subscriber cancels. *)

type job = {
  id : string;
  problem : Qac_ising.Problem.t;
  timeout_ms : float option;
      (** relative to submission; the absolute deadline is fixed at
          {!submit} time, so queueing delay counts against it *)
}

type status =
  | Done
  | Timed_out  (** deadline hit; [response] holds best-so-far when the
                   solver got to run, [None] when it expired in the queue *)
  | Canceled  (** {!cancel} removed the job before it was scheduled *)
  | Failed of string  (** embedding failed after retries, or too large *)

type result = {
  id : string;
  status : status;
  response : Qac_anneal.Sampler.response option;
      (** in the job's own logical variable space *)
  batch : int;  (** batch ordinal the job was finally served in, -1 if none *)
  wait_seconds : float;  (** submission to batch start *)
  solve_seconds : float;
}

type stats = {
  batches : int;
  full_flushes : int;  (** batches released by [batch_jobs] pending *)
  idle_flushes : int;
      (** batches released because the pending jobs filled every solver
          thread (the first cause that held wins, in this order) *)
  window_flushes : int;  (** batches released by [batch_window_s] expiring *)
  drain_flushes : int;
      (** batches released only by {!drain}; the four flush counts sum to
          [batches] *)
  jobs_done : int;
  placed : int;  (** successful placements (= jobs solved) *)
  deferrals : int;  (** requeues for floor space; can exceed the job count *)
  retries : int;  (** embedding-failure retries with fresh seeds *)
  failures : int;
  timeouts : int;
  canceled : int;
  coalesced : int;
      (** submissions served as followers of an identical live job; these
          never consumed a queue slot or a solve *)
  queue_depth : int;  (** distinct works currently waiting (followers do
                          not count) *)
  mean_occupancy : float;  (** mean over batches of the tiler's occupancy *)
  jobs_per_second : float;  (** jobs served / total batch processing time *)
}

type t

(** [create ~solver ~graph ()] starts the scheduler domain.  The tile
    family of [graph] ({!Qac_chimera.Family.of_topology}) is built here,
    once, and every batch tiles onto it, so each local fabric is built at
    most once per service; a graph that is neither Chimera nor Pegasus
    raises [Invalid_argument] here, before any job is accepted.
    [queue_capacity] bounds the submission queue (default 256);
    [batch_jobs] (default 16), [batch_window_s] (default 0.01) and
    [num_threads] (default 1) set the flush policy (see the flush contract
    above); [num_threads] also parallelizes tiling ladders and per-job
    solves; [tiler_params]/[embed_cache] are handed to {!Qac_embed.Tiler};
    [chain_break] ({!Qac_embed.Embedding.chain_break}, default [Vote])
    sets how broken chains resolve when responses unembed.
    Raises [Invalid_argument] when [queue_capacity], [batch_jobs] or
    [num_threads] is below 1, or [batch_window_s] is NaN or negative (an
    infinite window is allowed: batches then leave only by the other
    causes).
    [trace] records one ["batch"] span per flush (counters: jobs, placed,
    deferred, failed, queue-depth, occupancy-pct) and, at exit, the
    service-wide summary values, underscores as dashes
    ({!Qac_diag.Trace.set_summaries}): {!fields} as [serve-<field>],
    {!latency_fields} as [serve-latency-<field>] (e.g.
    [serve-latency-p50-seconds]) and, with an [embed_cache],
    {!Qac_embed.Cache.fields} as [embed-cache-<field>] (e.g.
    [embed-cache-hits]).  It is written only from the scheduler domain, so
    read it after {!drain}. *)
val create :
  ?queue_capacity:int ->
  ?batch_jobs:int ->
  ?batch_window_s:float ->
  ?num_threads:int ->
  ?tiler_params:Qac_embed.Tiler.params ->
  ?chain_break:Qac_embed.Embedding.chain_break ->
  ?embed_cache:Qac_embed.Cache.t ->
  ?trace:Qac_diag.Trace.t ->
  solver:(deadline:float option -> Qac_ising.Problem.t -> Qac_anneal.Sampler.response) ->
  graph:Qac_chimera.Topology.t ->
  unit ->
  t

val submit : t -> job -> unit
(** Enqueue; blocks while the queue is at capacity.  Raises
    [Invalid_argument] after {!drain} has started. *)

val submit_ticket : t -> job -> int
(** Like {!submit}, returning the job's ticket — its index in submission
    order, usable with {!peek} and {!cancel} while the service runs. *)

val submit_all : t -> job list -> int list
(** Like {!submit_ticket} for each job in order, but the jobs enter the
    queue under one lock hold, so the scheduler sees them together: a job
    file's batches do not depend on when the scheduler wakes.  Only a full
    queue lets a batch leave part-way (the call then blocks like
    {!submit}). *)

val try_submit : t -> job -> int option
(** Non-blocking admission: [None] when the queue is at capacity (the
    caller should shed load or retry later), [Some ticket] otherwise.  A
    job that coalesces onto a live duplicate is always admitted — it adds
    no work.  Raises [Invalid_argument] after {!drain} has started. *)

val peek : t -> int -> result option
(** The result of a ticket, once its batch has been processed.  [None]
    while the job is still queued or in flight.  Safe from any domain at
    any time.  Finished results are retained (spins packed one byte each)
    until the service is drained; each call rebuilds a fresh response. *)

val cancel : t -> int -> bool
(** Withdraw one delivery; the ticket's result becomes {!Canceled}.
    [false] when the ticket is unknown, already finished, or is the leader
    of an in-flight batch (in-flight work is never interrupted — per-job
    deadlines are the mechanism for bounding it).  A coalesced follower
    can always cancel before its result lands, even mid-flight: it owns no
    work.  Canceling the leader while followers remain withdraws only the
    leader's delivery — the solve still runs for the followers; the queued
    work itself is released exactly when its last subscriber cancels. *)

val latency : t -> Qac_diag.Hist.t
(** Snapshot of the end-to-end latency histogram (submit to result
    recording, seconds): every finished job — done, timed out, failed or
    canceled — contributes one observation. *)

val drain : t -> result list
(** Flush everything still queued, stop the scheduler, and return every
    job's result in submission order.  Idempotent: later calls return the
    same list. *)

val stats : t -> stats
(** Service counters; stable (and final) once {!drain} returns. *)

val fields : stats -> (string * float) list
(** Every counter under its record field name, in declaration order.  The
    one declaration the views render from: the [serve] object of the
    [stats] reply, the [qac_serve_<field>] Prometheus lines, and the
    [serve-<field>] trace summaries (underscores as dashes). *)

val latency_fields : Qac_diag.Hist.t -> (string * float) list
(** The latency declaration, in order: [seconds_count], [seconds_sum],
    [p50_seconds], [p90_seconds], [p99_seconds].  Every latency view
    renders it: the [latency] object of the [stats] reply, the
    [qac_serve_latency_<field>] Prometheus lines (after the
    [qac_serve_latency_seconds_bucket] lines), the [serve-latency-<field>]
    trace summaries and [vqa serve]'s latency line. *)
