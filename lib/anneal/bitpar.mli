(** Bit-parallel multi-replica Metropolis kernel (multi-spin coding): up to
    64 SA replicas pack into one 64-bit spin word per variable and advance
    through a single CSR row walk per proposal.  Couplings quantize to
    integer levels, so acceptance is an integer compare against the
    sweep's threshold row ({!Schedule.fill_row}), with a {!Rng.Lanes}
    draw only for uphill moves the row has not already rejected.

    The lane contract (see also [lib/anneal/README.md]): a lane's
    trajectory is a pure function of (quantized problem, acceptance
    tables, visit order, lane seed).  Lane [l] of {!anneal_block} is
    bit-identical to {!anneal_lane} with the same plan, and a block with
    [k] lanes equals the first [k] lanes of a wider block with the same
    [block_seed]. *)

val max_lanes : int
(** 64: replicas per packed block. *)

type quantized = {
  problem : Qac_ising.Problem.t;
  eps : float;  (** coefficient quantum: level [k] spans [k *. eps] energy *)
  qh : int array;  (** [round (h.(i) /. eps)] *)
  qweight : int array;  (** quantized CSR weights, parallel to [Problem.weight] *)
  max_level : int;  (** largest possible |local field| in levels, >= 1 *)
}

val quantize : ?resolution:int -> Qac_ising.Problem.t -> quantized
(** Scale couplings to integers: [eps = max_coeff /. resolution] (1.0 for
    an all-zero problem).  [resolution] defaults to 128 levels for the
    largest coefficient magnitude — comfortably finer than the target
    hardware's DAC precision, coarse enough to keep the threshold tables
    short.  Raises [Invalid_argument] when [resolution < 1]. *)

val acceptance :
  quantized -> Schedule.t -> num_sweeps:int -> Schedule.acceptance
(** The per-sweep acceptance thresholds for this quantization — built
    once per sample call and shared by every block and scalar lane, each
    of which fills one sweep's row at a time. *)

val block_plan :
  num_vars:int -> lanes:int -> block_seed:int -> int array * int array
(** [(order, lane_seeds)]: the shuffled visit order shared by the block's
    lanes, then one derived seed per lane, all from
    [Rng.create block_seed].  Raises [Invalid_argument] unless
    [1 <= lanes <= 64]. *)

val anneal_lane :
  quantized ->
  acceptance:Schedule.acceptance ->
  order:int array ->
  lane_seed:int ->
  Qac_ising.Problem.spin array
(** The scalar reference kernel: one lane annealed with plain scalar code
    over the same integer dynamics, draw stream, and tables.  Shares no
    packing logic with {!anneal_block} — it is the equivalence comparator
    and the fallback for odd jobs. *)

type block_result = {
  reads : Qac_ising.Problem.spin array array;
      (** lane-indexed final configurations; a single entry (lane 0's
          partial state) when the block hit its deadline mid-anneal *)
  timed_out : bool;
}

val anneal_block :
  ?deadline:float ->
  quantized ->
  acceptance:Schedule.acceptance ->
  lanes:int ->
  block_seed:int ->
  block_result
(** Anneal [lanes] replicas in one packed pass over
    [acceptance.num_steps] sweeps.  [deadline] (absolute
    [Unix.gettimeofday] instant) is checked between sweeps; an expired
    block returns lane 0's current configuration as a single partial
    read, mirroring the scalar sampler's best-so-far contract.  Raises
    [Invalid_argument] unless [1 <= lanes <= 64]. *)
