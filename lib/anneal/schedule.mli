(** Annealing schedules: inverse-temperature (beta) ramps.

    The default range is derived from the problem, in the manner of D-Wave's
    classical neal sampler: the hot end makes even the stiffest spin flip
    with probability ~1/2; the cold end makes the weakest coefficient
    significant. *)

type t = {
  beta_min : float;
  beta_max : float;
  kind : [ `Geometric | `Linear ];
}

val create :
  ?kind:[ `Geometric | `Linear ] ->
  ?beta_min:float ->
  ?beta_max:float ->
  Qac_ising.Problem.t ->
  t
(** Defaults: geometric ramp over a [(beta_min, beta_max)] range derived
    from the problem's field extremes. *)

val beta : t -> step:int -> num_steps:int -> float
(** Inverse temperature at sweep [step] of [num_steps]. *)

val acceptance_scale : int
(** [2^61]: thresholds and uniform draws share this scale
    ({!Rng.Lanes.draw}). *)

type acceptance = {
  num_steps : int;
  delta_unit : float;  (** energy per quantization level (2 * eps) *)
  width : int;  (** [max_level + 1]: the longest row {!fill_row} writes *)
  factors : float array;  (** per step, [exp (-. beta *. delta_unit)] *)
}

val fill_row : acceptance -> step:int -> int array -> int
(** [fill_row a ~step row] writes sweep [step]'s thresholds into the
    first entries of [row] (at least [a.width] long) and returns their
    count [len].  An uphill move of [k] levels is accepted iff [k < len]
    and a uniform draw in [0, {!acceptance_scale}) is below [row.(k)];
    [row.(0)] is the always-accept sentinel.  The row stops at the first
    zero threshold, which subsumes the scalar kernel's
    [beta * delta > 30] cutoff.  Raises [Invalid_argument] when [row] is
    shorter than [a.width] or [step] is out of range. *)

(** [acceptance_tables t ~num_steps ~delta_unit ~max_level] describes the
    per-sweep Metropolis acceptance thresholds for deltas quantized to
    multiples of [delta_unit], up to [max_level] levels: one [exp] per
    sweep here, then one multiply per level in {!fill_row}, instead of an
    [exp] per proposal in the kernels.  The kernels fill one row buffer
    per sweep rather than keeping [num_steps] rows alive, so a solve
    allocates no per-sweep tables.  Shared by the bit-packed block kernel
    and its scalar lane reference ({!Bitpar}). *)
val acceptance_tables :
  t -> num_steps:int -> delta_unit:float -> max_level:int -> acceptance
