(** LRU cache of minor embeddings.

    Pakin reports embedding dominating compile time (section 4.4: CMR "can
    take seconds to minutes"); reruns of the same circuit shape — unrolled
    sequential designs re-executed with new pins, bench sweeps, qbsolv-style
    repeated subproblems — re-embed an identical interaction graph every
    time.  The cache keys on exactly what the embedder reads:

    - the {b structure} of the logical problem (variable count + coupler
      pairs; coefficient values do not affect the embedding),
    - the topology identity (name, structural params, broken-qubit set),
    - the {!Cmr.params} that steer the search ([tries], [max_passes],
      [alpha], [seed] — but not [num_threads], which by contract cannot
      change the result).

    All operations are mutex-guarded, so a cache may be shared across
    domains. *)

type t

val create : ?capacity:int -> ?store:Store.t -> unit -> t
(** LRU over [capacity] entries (default 64).  With [?store], the cache is
    backed by a persistent artifact store: {!find} misses fall through to
    the store (a store hit promotes the embedding into the LRU and counts
    as a cache hit), and {!add} writes through.  Several caches — one per
    shard — may share one store; each promotion copies the immutable value
    into the shard's own LRU. *)

val key : Qac_chimera.Topology.t -> Qac_ising.Problem.t -> params:Cmr.params -> Digest.t
(** Content hash of the (topology, problem structure, params) triple. *)

val structure_digest : Qac_ising.Problem.t -> Digest.t
(** The problem-dependent part of {!key} alone (variable count + coupler
    pairs, never coefficient values).  Two problems share a digest exactly
    when they would share every embed-cache entry on any one graph — the
    identity the shard router hashes for cache-affinity routing. *)

val find : t -> Digest.t -> Embedding.t option
(** Hit refreshes recency and bumps the hit counter; miss bumps the miss
    counter.  A backing-store hit counts as a cache hit (plus a
    [store_hits] tick) and promotes the entry. *)

val add : t -> Digest.t -> Embedding.t -> unit
(** Inserts (or refreshes) and evicts the least recently used entry beyond
    capacity; writes through to the backing store when one is attached. *)

val length : t -> int

type stats = {
  hits : int;  (** {!find} calls that returned an embedding *)
  misses : int;  (** {!find} calls that returned [None] *)
  evictions : int;  (** entries dropped by the LRU policy *)
  entries : int;  (** current table size *)
  store_hits : int;  (** the subset of [hits] served by the backing store *)
}

val stats : t -> stats
(** Counters since creation (or {!clear}); [entries] is instantaneous.
    Surfaced per shard by the serving tier's stats endpoint. *)

val fields : stats -> (string * float) list
(** Every counter under its record field name, in declaration order: the
    one list the JSON and Prometheus views render from. *)

val clear : t -> unit

val shared : unit -> t
(** The process-wide cache {!Qac_core.Pipeline.run} defaults to.  It
    exists from module initialisation on, so every domain gets the same
    cache. *)
