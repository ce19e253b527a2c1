(** Randomized minor-embedding heuristic in the style of Cai, Macready and
    Roy (the algorithm behind D-Wave's SAPI embedder the paper uses,
    section 4.4).

    Each logical variable grows a chain of physical qubits.  Chains are
    (re)routed one variable at a time: the candidate root qubit minimizing
    the total weighted shortest-path distance to every embedded neighbor's
    chain is chosen, and the paths themselves become the chain.  Qubit
    weights grow exponentially with how many chains already use them, so
    refinement passes drive overlaps to zero.  The process is randomized;
    repeated calls with different seeds yield different qubit counts
    (section 6.1 reports 369 +/- 26 qubits over 25 runs).

    The hot path walks the topology's CSR adjacency with one reusable
    Dijkstra search per embedded neighbor, each with an indexed
    decrease-key heap; the searches advance in lockstep and stop as soon as
    no unsettled qubit can beat the best root (see [lib/embed/README.md]
    for the contracts).  Restarts ([tries]) can run across OCaml domains;
    the result is a deterministic function of the seed alone — identical
    at every [num_threads]. *)

type params = {
  tries : int;  (** independent restarts with different orderings *)
  max_passes : int;  (** improvement passes per try *)
  alpha : float;  (** overuse penalty base (default 4) *)
  seed : int;
  num_threads : int;
      (** OCaml domains for the restarts; per-try seeds derive from [seed]
          up front and results recombine by (total chain length, try index),
          so any thread count returns the same embedding (default 1) *)
}

val default_params : params

(** [params_for graph] is the default parameter set retuned for [graph]'s
    connectivity: degree-15 fabrics (Pegasus) route with far fewer restarts
    and passes than degree-6 Chimera needs, so they get [tries = 16] and
    [max_passes = 16]; everything else gets {!default_params}.  Pure in the
    graph, so cache keys stay deterministic. *)
val params_for : Qac_chimera.Topology.t -> params

(** [find ?params graph problem] searches for an embedding of [problem]'s
    interaction graph into [graph].  Returns [None] when every try fails.
    Raises [Invalid_argument] when [params.alpha] is not finite and
    positive (qubit costs must be positive) or [params.max_passes] is
    negative. *)
val find :
  ?params:params ->
  Qac_chimera.Chimera.t ->
  Qac_ising.Problem.t ->
  Embedding.t option

(**/**)

(** Internal: the router's root and path search, exposed only so tests can
    compare it with a full-search reference.  Not part of the API. *)
module Internal : sig
  exception Route_failed
  (** No working qubit is reached from every chain. *)

  val route :
    Qac_chimera.Topology.t -> cost:float array -> int list array -> int * float * int list
  (** [route graph ~cost chains] runs one multi-source search per neighbor
      chain in [chains] (non-empty array), with qubit [q] weighing
      [cost.(q) > 0], and returns [(root, score, chain)]: the working qubit
      minimizing [score = sum_i dist_i(root) + cost.(root)], ties to the
      lowest index, where [dist_i] counts the intermediate qubits of a path
      from chain [i]; and the new chain, the root plus the path qubits
      walked back toward each neighbor chain, most recently added first. *)
end
