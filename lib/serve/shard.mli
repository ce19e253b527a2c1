(** Sharded serving tier: a pool of {!Serve} schedulers, one per OCaml
    domain, each with its {e own} embedding cache, fed by cache-affinity
    routing.

    Why sharding beats one big scheduler: the expensive, memoizable work in
    this pipeline is minor embedding, and PR 3/4 made its cache keyed on the
    {e structure} of a problem ({!Qac_embed.Cache.structure_digest}).  A
    shared cache across domains serializes on its lock and still thrashes
    once the working set of distinct shapes exceeds capacity; a per-shard
    cache with all same-shaped traffic routed to one shard keeps each
    shard's cache small, hot, and uncontended — the same reason the D-Wave
    cloud client pins a problem family to one solver endpoint.

    Routing hashes the structure digest {e alone} and folds it over the
    shard count: deterministic (same digest, same shard — for any pool of
    this size, forever), balanced over random digests, and a pure
    single-hash function of the digest — per-shard salted scores survive
    only as a tie-break, so no salt can ever split same-shaped traffic
    across shards.  The pool's size is fixed at {!create}; a pool of a
    different size is a different routing function.  {!Round_robin}
    routing exists as the control arm for benchmarks.

    Tickets are pool-global: {!submit} returns a ticket valid with
    {!poll}/{!cancel} whatever shard the job landed on.  {!try_submit} is
    the admission-control path — a full target shard rejects with a
    retry-after hint instead of blocking, which is what a network front end
    must do (a blocked accept loop is a dead server). *)

type routing =
  | Affinity  (** rendezvous-hash the problem-structure digest (default) *)
  | Round_robin  (** ignore structure; benchmark control arm *)

type t

type admission =
  | Accepted of { ticket : int; shard : int }
  | Rejected of { retry_after_ms : float }
      (** target shard at capacity; the hint scales with its queue depth
          and measured throughput *)

type shard_stats = {
  shard : int;
  serve : Serve.stats;
  cache : Qac_embed.Cache.stats;
  latency : Qac_diag.Hist.t;
}

(** [create ~solver ~graph ()] starts [num_shards] (default 1) {!Serve}
    schedulers.  Every optional parameter mirrors {!Serve.create} and is
    applied to each shard; each shard's private embedding cache holds
    {!Qac_embed.Cache.create}'s default 64 entries; [num_threads] is {e per
    shard}.
    [store] plugs one shared {!Qac_embed.Store} behind every shard's
    cache: misses fall through to the persistent corpus and promote into
    the missing shard's own LRU, and every fresh embedding is written
    through — a restarted pool starts warm.
    [solver] must be pure up to its arguments — the composition-invariance
    contract makes a job's response independent of the shard that serves
    it, so any routing policy (and any shard count) returns bit-identical
    results.  Like {!Serve.create}, raises [Invalid_argument] when [graph]
    is neither Chimera nor Pegasus, before any shard starts.
    [trace] goes to the one shard's {!Serve.create}: its ["batch"] spans
    and exit summary ([serve-<field>], [serve-latency-<field>],
    [embed-cache-<field>]).  A trace is written from a single domain, so
    [trace] with [num_shards > 1] raises [Invalid_argument]. *)
val create :
  ?num_shards:int ->
  ?routing:routing ->
  ?queue_capacity:int ->
  ?batch_jobs:int ->
  ?batch_window_s:float ->
  ?num_threads:int ->
  ?tiler_params:Qac_embed.Tiler.params ->
  ?chain_break:Qac_embed.Embedding.chain_break ->
  ?store:Qac_embed.Store.t ->
  ?trace:Qac_diag.Trace.t ->
  solver:(deadline:float option -> Qac_ising.Problem.t -> Qac_anneal.Sampler.response) ->
  graph:Qac_chimera.Topology.t ->
  unit ->
  t

val num_shards : t -> int

val rendezvous : digest:Digest.t -> num_shards:int -> int
(** The pure routing function: the unsalted [FNV-1a digest] folded over
    [num_shards] — a function of the digest and the shard count only.
    Exposed for tests and for clients that want to predict placement. *)

val route : t -> Qac_ising.Problem.t -> int
(** The shard {!submit} would choose for this problem under {!Affinity}
    (under {!Round_robin} the actual choice also advances a counter). *)

val submit : t -> Serve.job -> int
(** Route and enqueue; blocks on the target shard's backpressure.  Returns
    a pool-global ticket. *)

val submit_all : t -> Serve.job list -> int list
(** {!submit} for each job in order, tickets in the same order; each
    shard's share enters its queue together ({!Serve.submit_all}), so a
    job file's batches do not depend on when a scheduler wakes. *)

val try_submit : t -> Serve.job -> admission
(** Route and enqueue without blocking: load is shed (with a retry-after
    hint) when the target shard's queue is full. *)

val poll : t -> int -> Serve.result option
(** [None] while the job is queued or in flight; the result once its batch
    finished.  Raises [Invalid_argument] on an unknown ticket. *)

val cancel : t -> int -> bool
(** Cancel a still-queued job (see {!Serve.cancel}).  Raises
    [Invalid_argument] on an unknown ticket. *)

val stats : t -> shard_stats array
(** Per-shard snapshot, index [i] = shard [i]. *)

val latency : t -> Qac_diag.Hist.t
(** Pool-wide latency: the per-shard histograms merged. *)

val metrics : t -> string
(** Prometheus-style text exposition: one
    [qac_<name>{shard="<i>"} <value>] line per counter per shard — every
    {!Serve.fields} entry as [qac_serve_<field>], every
    {!Qac_embed.Cache.fields} entry as [qac_embed_cache_<field>], and the
    log-bucketed latency histogram: one cumulative
    [qac_serve_latency_seconds_bucket{shard="<i>",le="..."}] line per
    {!Qac_diag.Hist.cumulative} entry, so exactly one [le="+Inf"] line per
    shard, then every {!Serve.latency_fields} entry as
    [qac_serve_latency_<field>] ([_seconds_count], [_seconds_sum] and the
    p50/p90/p99 gauges).  When the pool was created
    with a [store], unlabeled pool-wide [qac_store_<field>] lines follow,
    one per {!Qac_embed.Store.fields} entry. *)

val drain : t -> (int * Serve.result) list
(** Drain every shard and return all results as [(ticket, result)] in
    ticket order.  Idempotent. *)
