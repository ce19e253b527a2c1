(** Multi-problem tiling: pack N independent logical Ising problems onto one
    hardware graph by carving it into disjoint regions, one per problem, and
    solve each region's physical problem on its own ({!solve}).  All
    fabric-specific geometry (tile grid, clean tiles, block footprints,
    local graphs) comes from {!Qac_chimera.Family}, so any family that
    module knows — Chimera and Pegasus — tiles identically.

    {b Regions are square blocks of clean tiles.}  A tile with a qubit
    broken beyond the family's own fabric trimming is excluded from the pool
    outright, so every placed block induces a subgraph isomorphic — by
    translation, with identical local numbering — to the family's local
    fabric [Family.build_local k] ([Chimera.create ~shore k], or a
    translated [P_{k+1}]).  Each problem is therefore embedded into that
    local graph, never into its eventual position, which buys two
    properties at once:

    - {b composition invariance}: the embedding, the local physical problem,
      and hence the solved response for a job are pure functions of (job,
      params) — bit-identical whether the job is solved alone or packed with
      any other jobs, at any thread count;
    - {b cache locality}: every job with the same interaction structure and
      block size shares one {!Cache} entry (the local topology is the same
      family-distinct ["chimera-kxkxk"] / ["pegasus-k+1"] object for all of
      them, so keys can never collide across fabrics).

    Block sizes climb a deterministic ladder: starting from a capacity
    heuristic, each size gets a fixed number of embedding attempts with
    seeds derived from [(seed, size, attempt)]; an embedding failure grows
    the block, lack of floor space defers the job (the batch server retries
    it at the front of the next, emptier batch), and a problem too large for
    even an empty floor fails outright. *)

type params = {
  seed : int;  (** base seed for the per-(size, attempt) embedding seeds *)
  attempts_per_size : int;  (** embedding retries before growing the block *)
  max_block : int option;  (** block-size cap; [None] = the full grid *)
  slack : float;
      (** capacity headroom: the ladder starts at the smallest block [k]
          with [Family.block_capacity k >= slack * num_vars] *)
  embed_params : Cmr.params option;
      (** base CMR parameters; the ladder overrides [seed] per attempt *)
  chain_strength : float option;  (** [None]: per-problem default *)
}

val default_params : params
(** seed 1, 2 attempts per size, no cap, slack 3.0, default CMR params. *)

type region = {
  origin_row : int;
  origin_col : int;  (** north-west tile of the block, in grid coordinates *)
  block : int;
      (** block size; the placed footprint is [Family.footprint block] tiles
          per side (equal to [block] for Chimera, [block + 1] for Pegasus) *)
  qubits : int array;
      (** global qubit ids in local-index order: [qubits.(l)] is the global
          qubit playing the role of qubit [l] of [Family.build_local block] *)
}

type placed = {
  job : int;  (** index into the problem array passed to {!tile} *)
  region : region;
  embedding : Embedding.t;  (** into the local [C_block], not the region *)
  physical : Qac_ising.Problem.t;  (** local index space, ready to solve *)
}

type outcome =
  | Placed of placed
  | Deferred
      (** embeddable, and a clean block of the required size exists on an
          empty floor, but not in this batch's leftover space *)
  | Failed of string  (** no embedding, or too large for the topology *)

type t = {
  family : Qac_chimera.Family.t;  (** the carved fabric; [family.graph] is the chip *)
  problems : Qac_ising.Problem.t array;
  outcomes : outcome array;  (** parallel to [problems] *)
}

(** [tile ?params ?cache ?seeds ?num_threads family problems] carves
    [family.graph] and embeds every problem: {!place} applied to
    {!ladders}.  The per-job ladder runs across [num_threads] domains
    (placement itself is sequential and deterministic: first-fit,
    row-major, in job order).  [cache] memoizes embeddings across jobs and
    batches.  [seeds] overrides [params.seed] per job — the batch server
    uses it to retry an embedding-failed job with a fresh seed; a job's
    seed is part of its identity for composition invariance.  Build
    [family] once with {!Qac_chimera.Family.of_topology} (which rejects a
    graph that is neither Chimera nor Pegasus) and pass it to every batch:
    its local fabrics are built on first use and shared by later calls, so
    a warm batch costs cache lookups plus placement.  Problems with zero
    variables are placed trivially (empty region). *)
val tile :
  ?params:params ->
  ?cache:Cache.t ->
  ?seeds:int array ->
  ?num_threads:int ->
  Qac_chimera.Family.t ->
  Qac_ising.Problem.t array ->
  t

type ladder = (int * Embedding.t, string) result
(** One job's ladder outcome: [Ok (block, embedding)], the embedding into
    [Family.build_local block] ([block = 0] for a zero-variable problem),
    or the reason the job cannot be placed on this family at all.  A pure
    function of (problem, params, seed), so a caller may keep it across
    batches: a deferred job needs no new ladder. *)

val ladders :
  ?params:params ->
  ?cache:Cache.t ->
  ?trace:Qac_diag.Trace.t ->
  ?seeds:int array ->
  ?num_threads:int ->
  Qac_chimera.Family.t ->
  Qac_ising.Problem.t array ->
  ladder array
(** The first phase of {!tile}: each problem's ladder, parallel to
    [problems], independent of the grid and of the other problems.  When
    there are fewer problems than [num_threads], the spare threads go to
    each ladder's CMR tries ({!Cmr.params.num_threads}), which cannot
    change the embedding found.  [trace] records, per ladder, an
    [embed-cache-hit] counter for a cache hit, or an [embed] span opened at
    the first miss that holds the rest of the ladder, its
    [embed-cache-miss] count, and the [physical-qubits] and
    [max-chain-length] of the embedding found; a warm ladder has no [embed]
    span.  A trace is not shared across domains, so pass one only when
    the ladders run on the calling domain: one problem, or [num_threads]
    1. *)

val place :
  ?params:params -> Qac_chimera.Family.t -> Qac_ising.Problem.t array -> ladder array -> t
(** The second phase of {!tile}: first-fit placement of the [Ok] ladders,
    in job order, on a floor that starts empty ([Error] ladders become
    [Failed], ladders that find no room [Deferred]), and the local
    physical problem of each placed job ([params.chain_strength]).  Raises
    [Invalid_argument] unless [ladders] is parallel to [problems]. *)

val occupancy : t -> float
(** Fraction of the graph's working qubits covered by placed regions. *)

val counts : t -> int * int * int
(** [(placed, deferred, failed)]. *)

val solve_placed :
  ?trace:Qac_diag.Trace.t ->
  ?chain_break:Embedding.chain_break ->
  solver:(Qac_ising.Problem.t -> Qac_anneal.Sampler.response) ->
  placed ->
  (Embedding.unembedded * int) list * Qac_anneal.Sampler.response
(** [solve_placed ~solver p] solves one placed job: compact its local
    physical problem, run [solver] on it, and resolve the chains back
    under [chain_break] ({!Embedding.unembed_reads}, default [Vote];
    [Discard] drops broken reads, falling back to voting when all are
    broken).  Returns the logical reads, each with its broken-chain count
    and occurrence count in sample order, and [solver]'s response.  A
    zero-block job skips the solver: one empty read, no time.  [trace]
    records an [unembed] span with a [discarded-reads] counter. *)

(** [solve ?num_threads ?chain_break ?deadline ~solver t] runs
    {!solve_placed} on every placed job and returns [(job, response)]
    pairs in job order, each response built from the job's logical reads
    (each repeated by its count, energies evaluated against the job's own
    logical Hamiltonian).  [solver] receives the per-job deadline
    ([deadline job], absolute [Unix.gettimeofday] instant, [None] when
    absent) and must be pure up to its arguments: jobs run concurrently
    across [num_threads] domains, and composition invariance holds only if
    the solver output depends on the problem alone. *)
val solve :
  ?num_threads:int ->
  ?chain_break:Embedding.chain_break ->
  ?deadline:(int -> float option) ->
  solver:(deadline:float option -> Qac_ising.Problem.t -> Qac_anneal.Sampler.response) ->
  t ->
  (int * Qac_anneal.Sampler.response) list
