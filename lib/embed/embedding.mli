(** Minor embeddings: each logical variable occupies a *chain* of physical
    qubits held together by strong ferromagnetic couplers (section 4.4).

    [apply] produces the physical Hamiltonian: linear coefficients are split
    evenly across a chain's qubits, each logical coupler is split across the
    physical edges joining the two chains, and every intra-chain edge gets
    [-chain_strength].  [unembed] maps physical samples back by majority
    vote over each chain. *)

type t = { chains : int array array }
(** [chains.(v)] lists the physical qubits of logical variable [v]. *)

val num_physical_qubits : t -> int
(** Total qubits used (the section 6.1 metric). *)

val max_chain_length : t -> int

(** [verify graph problem embedding] checks the embedding is a valid minor:
    chains are nonempty, disjoint, connected in [graph], within range, and
    every logical coupler has at least one physical edge between its
    endpoint chains. *)
val verify :
  Qac_chimera.Chimera.t -> Qac_ising.Problem.t -> t -> (unit, string) result

(** [apply graph problem embedding] builds the physical Ising problem over
    the graph's qubit index space.  [chain_strength] defaults to twice the
    largest coefficient magnitude of the logical problem.  Raises
    [Invalid_argument] on embeddings that fail {!verify}. *)
val apply :
  ?chain_strength:float ->
  Qac_chimera.Chimera.t ->
  Qac_ising.Problem.t ->
  t ->
  Qac_ising.Problem.t

type unembedded = {
  logical : Qac_ising.Problem.spin array;
  broken_chains : int;  (** chains whose qubits disagreed *)
}

(** Chain-break resolution policy.  [Vote] takes the majority spin of each
    chain (first qubit breaks ties).  [Discard] resolves like [Vote] per
    read; {!unembed_reads} drops reads whose [broken_chains] is non-zero,
    falling back to the voted reads when every read would be dropped.
    [Polish] greedy-descends the physical configuration on the embedded
    problem first (the chain couplers pull broken chains back into
    agreement), then votes; it needs the physical problem via [?problem]
    and degrades to [Vote] without it. *)
type chain_break = Vote | Discard | Polish

val unembed :
  ?policy:chain_break ->
  ?problem:Qac_ising.Problem.t ->
  t ->
  Qac_ising.Problem.spin array ->
  unembedded
(** [policy] defaults to [Vote].  [broken_chains] always reports the raw
    read's disagreeing chains, even under [Polish]. *)

(** [unembed_reads ?policy ?old_of_new ~problem t samples] resolves a
    solver's samples to logical reads: each sample is expanded to
    [problem]'s full physical index space through [old_of_new] (the map
    {!compact} returns; unused qubits read +1 — omit it when the samples
    are already full-length), unembedded under [policy] against the
    physical [problem], and paired with its occurrence count, in sample
    order.  Under [Discard], reads with broken chains are dropped; when
    every read is broken, all of them are kept (voted) so the result stays
    non-empty. *)
val unembed_reads :
  ?policy:chain_break ->
  ?old_of_new:int array ->
  problem:Qac_ising.Problem.t ->
  t ->
  Qac_anneal.Sampler.sample list ->
  (unembedded * int) list

(** [compact p] drops variables with no coefficients, returning the smaller
    problem and the map from new to old indices.  Useful before running a
    sampler on a physical problem that occupies a fraction of the chip. *)
val compact : Qac_ising.Problem.t -> Qac_ising.Problem.t * int array
