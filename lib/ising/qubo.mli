(** QUBO (quadratic unconstrained binary optimization) form of a quadratic
    pseudo-Boolean function, over 0/1 variables.  qbsolv and the
    operations-research community work in this form (paper, section 3); the
    conversion to/from Ising spins is exact and preserves the energy of every
    configuration, including the constant offset. *)

type t = {
  num_vars : int;
  offset : float;
  linear : float array;
  quadratic : ((int * int) * float) array;  (** [i < j], sorted, deduplicated *)
}

val create :
  num_vars:int -> linear:float array -> quadratic:((int * int) * float) list ->
  ?offset:float -> unit -> t

val energy : t -> bool array -> float

val of_ising : Problem.t -> t
val to_ising : t -> Problem.t

(** [bools_of_spins sigma] maps -1 to [false] and +1 to [true]. *)
val bools_of_spins : Problem.spin array -> bool array
