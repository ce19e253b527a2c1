(** Simulated annealing — the classical stand-in for the D-Wave quantum
    annealer (section 2 notes the generated Hamiltonians "can be minimized
    in software on conventional computers using, e.g., simulated
    annealing").

    Each read starts from a fresh random spin configuration and Metropolis
    sweeps through every spin while the inverse temperature ramps from hot
    to cold.  Reads are independent and deterministic given [seed]. *)

type params = {
  num_reads : int;
  num_sweeps : int;  (** full passes over all spins per read *)
  beta_min : float option;  (** [None]: derived from the problem *)
  beta_max : float option;
  schedule : [ `Geometric | `Linear ];
  greedy_postprocess : bool;  (** descend to a local minimum after the ramp *)
  seed : int;
}

val default_params : params
(** 100 reads, 200 sweeps, geometric auto schedule, postprocessing on,
    seed 42.  Reads run in {!Bitpar} blocks of up to 64 — integer
    quantized dynamics, one CSR walk advancing all lanes. *)

(** [sample ?params ?deadline p] — [deadline] is an absolute
    [Unix.gettimeofday] instant; the sampler checks it between sweeps and
    between reads, and a run that hits it returns the reads finished so far
    (plus the in-flight read's current state) with
    [Sampler.response.timed_out] set.  Responses without a deadline are
    bit-identical to previous behaviour. *)
val sample : ?params:params -> ?deadline:float -> Qac_ising.Problem.t -> Sampler.response
