(** Domain-parallel sampling: split a read batch across OCaml 5 domains.

    Reads are partitioned into fixed-size chunks whose seeds derive from
    the base seed by chunk position, so the response is a deterministic
    function of [(seed, num_reads, chunk_size)] alone: any thread count
    returns the identical sample set (only wall time varies). *)

type chunk = { chunk_seed : int; chunk_reads : int }

val chunks : ?chunk_size:int -> seed:int -> num_reads:int -> unit -> chunk list
(** The deterministic chunk decomposition. *)

(** [run_tasks ~num_workers n f] runs [f 0 .. f (n-1)] across at most
    [num_workers] OCaml domains (the caller included), pulling task indices
    off a shared atomic counter.  [f] must be safe to run concurrently for
    distinct indices and must write its result somewhere index-addressed:
    which domain runs which index is nondeterministic, so determinism must
    come from the index, never from execution order.  [num_workers <= 1]
    degrades to a plain sequential loop with no domain spawns. *)
val run_tasks : ?num_workers:int -> int -> (int -> unit) -> unit

(** [sample ~num_threads ~seed ~num_reads f problem] calls
    [f ~seed:chunk_seed ~num_reads:chunk_reads] once per chunk, across
    [num_threads] domains, and merges the responses ({!Sampler.merge}).
    [elapsed_seconds] of the result is the wall time of the whole batch.
    [f] must be pure up to its seed (no shared mutable state): it runs
    concurrently on multiple domains. *)
val sample :
  ?num_threads:int ->
  ?chunk_size:int ->
  seed:int ->
  num_reads:int ->
  (seed:int -> num_reads:int -> Sampler.response) ->
  Qac_ising.Problem.t ->
  Sampler.response

(** Per-solver wrappers: the params' own [seed] and [num_reads]
    (resp. [num_restarts] for tabu) define the batch.  [deadline] is one
    absolute [Unix.gettimeofday] instant shared by every chunk — a
    timed-out batch merges whatever partial reads the chunks produced and
    sets [Sampler.response.timed_out]. *)

val sample_sa :
  ?num_threads:int -> ?chunk_size:int -> ?deadline:float -> params:Sa.params ->
  Qac_ising.Problem.t -> Sampler.response
(** SA's [chunk_size] defaults to {!Bitpar.max_lanes} (not the other
    samplers' 16) so each chunk is exactly one packed block. *)

val sample_sqa :
  ?num_threads:int -> ?chunk_size:int -> ?deadline:float -> params:Sqa.params ->
  Qac_ising.Problem.t -> Sampler.response

val sample_tabu :
  ?num_threads:int -> ?chunk_size:int -> ?deadline:float -> params:Tabu.params ->
  Qac_ising.Problem.t -> Sampler.response
