(** Common sampler types: every solver returns a [response], mirroring how
    qmasm "can run a program arbitrarily many times and report statistics on
    the results" (section 4.3). *)

type sample = {
  spins : Qac_ising.Problem.spin array;
  energy : float;
  num_occurrences : int;
}

type response = {
  samples : sample list;  (** distinct configurations, ascending energy *)
  num_reads : int;
  elapsed_seconds : float;
  timed_out : bool;
      (** the solver hit its deadline and returned best-so-far partial
          results (see the [?deadline] argument of the samplers) *)
}

val pack : Qac_ising.Problem.spin array -> Bytes.t
(** One byte per spin ([+1] -> ['\001'], [-1] -> ['\000']): the dedup key
    of the aggregators below, an eighth the size of the [int] array. *)

val unpack : Bytes.t -> Qac_ising.Problem.spin array
(** Inverse of {!pack} on [+1]/[-1] arrays. *)

(** Aggregate raw reads: duplicates merge with occurrence counts (keyed on a
    packed byte string of the configuration); samples sort by energy, then
    configuration. *)
val response_of_reads :
  Qac_ising.Problem.t ->
  ?elapsed_seconds:float ->
  ?timed_out:bool ->
  Qac_ising.Problem.spin array list ->
  response

(** Same aggregation for [(spins, energy)] pairs whose energies the solver
    already tracked incrementally (see {!State.energy}) — the Hamiltonian is
    never re-evaluated. *)
val response_of_evaluated_reads :
  ?elapsed_seconds:float ->
  ?timed_out:bool ->
  (Qac_ising.Problem.spin array * float) list ->
  response

(** Aggregation for reads that already carry occurrence counts (bit-packed
    blocks, composite post-processors, the tiler's demux): counts for equal
    configurations sum {e before} the energy sort, so near-identical
    multi-lane blocks collapse into single samples instead of inflating
    the response.  Raises [Invalid_argument] on a count below 1. *)
val response_of_counted_reads :
  ?elapsed_seconds:float ->
  ?timed_out:bool ->
  (Qac_ising.Problem.spin array * float * int) list ->
  response

val best : response -> sample
(** Raises [Invalid_argument] on an empty response. *)

val num_distinct : response -> int

val merge : Qac_ising.Problem.t -> response list -> response
(** Combine responses from several invocations: occurrence counts aggregate
    directly, elapsed times add, [timed_out] is the disjunction.  The result
    is independent of the list order (samples re-sort by energy, then
    configuration). *)

val success_probability : response -> target_energy:float -> float
(** Fraction of reads at or below [target_energy] (+1e-9 tolerance). *)

(** [time_to_solution response ~target_energy ~confidence] — the standard
    annealing-literature TTS metric: expected wall time to observe at least
    one read at the target energy with the given confidence (default 0.99),
    extrapolated from this response's per-read time and success rate.
    [None] when no read succeeded. *)
val time_to_solution :
  ?confidence:float -> response -> target_energy:float -> float option

(** [pp_histogram fmt response] prints an ASCII energy histogram (up to
    [buckets], default 10) with read counts — the "statistics on the
    results" view qmasm offers. *)
val pp_histogram : ?buckets:int -> Format.formatter -> response -> unit
