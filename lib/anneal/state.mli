(** Incremental annealing state: spin vector + cached local fields + running
    energy, the shared inner-loop kernel of SA, SQA, tabu, greedy descent and
    the qbsolv decomposer.

    Maintained invariants, for a state made over problem [p]:
    - [field t i = h.(i) + sum_j J_ij * spins.(j)];
    - [energy t = Problem.energy p (spins t)]
    (up to float rounding accumulated by incremental updates).  A flip
    proposal is therefore O(1) and an accepted flip O(degree), via one CSR
    row walk. *)

type t

val make : Qac_ising.Problem.t -> Qac_ising.Problem.spin array -> t
(** [make p spins] builds the caches in O(vars + couplers).  [spins] is
    aliased, not copied: {!flip} mutates it in place.  Raises
    [Invalid_argument] on a bad spin vector. *)

val random : Qac_ising.Problem.t -> Rng.t -> t
(** A fresh state over a uniformly random configuration. *)

val copy : t -> t
(** Deep copy; the two states share only the problem. *)

val spins : t -> Qac_ising.Problem.spin array
(** The live spin array (aliased — treat as read-only; mutate via {!flip}). *)

val energy : t -> float
(** The tracked energy, O(1). *)

val field : t -> int -> float
(** The cached local field of spin [i], O(1). *)

val num_vars : t -> int

val delta : t -> int -> float
(** [delta t i] is the energy change of flipping spin [i], O(1):
    [-2 * spins.(i) * field t i]. *)

val flip : t -> int -> unit
(** Flip spin [i]: update the spin, the tracked energy, and the neighbors'
    cached fields in O(degree i). *)
