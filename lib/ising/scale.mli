(** Hardware coefficient ranges and range scaling (paper, section 2).

    A D-Wave 2000Q accepts h in [-2, 2] and J in [-2, 1]; the J asymmetry
    comes from the rf-SQUID coupler physics.  Multiplying a Hamiltonian by a
    positive constant preserves its argmin, so out-of-range problems are
    brought into range by uniform downscaling. *)

type range = {
  h_min : float;
  h_max : float;
  j_min : float;
  j_max : float;
}

val dwave_2000q : range
(** h in [-2, 2], J in [-2, 1]. *)

val advantage : range
(** h in [-4, 4], J in [-1, 1] — the Pegasus-generation (Advantage) ranges:
    double the field headroom, symmetric but tighter couplers.  {!Cellgen}
    rederives its unit cells under this range for Pegasus targets. *)

val fits : range -> Problem.t -> bool

val apply : range -> Problem.t -> Problem.t
(** [apply range p] rescales [p] by the largest positive multiplier that
    brings it into [range] (at most 1.0: problems already in range are left
    alone); [fits range (apply range p)] always holds. *)

val dynamic_range : Problem.t -> float
(** Ratio of the largest to the smallest nonzero coefficient magnitude
    ([1.0] for a problem with no terms).  Invariant under uniform scaling,
    so it measures the analog precision a problem demands of the hardware;
    the SAT frontend refuses MaxSAT weight spreads that push it beyond
    [2^precision_bits]. *)

(** [quantize ~bits p] rounds each coefficient to one of [2^bits] evenly
    spaced levels over its current extent, modelling the limited analog
    precision the paper notes.  Used in noise-sensitivity experiments. *)
val quantize : bits:int -> Problem.t -> Problem.t
