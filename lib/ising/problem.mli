(** Quadratic pseudo-Boolean functions in Ising ("physics Boolean") form.

    A problem is a Hamiltonian
    {[ H(sigma) = offset + sum_i h.(i) * sigma_i
                         + sum_{i<j} J_{ij} * sigma_i * sigma_j ]}
    over spins [sigma_i] in {-1, +1} (paper, Equation 2).  [False] is -1 and
    [True] is +1 throughout, as in section 2 of the paper. *)

type spin = int
(** Always [+1] or [-1]. *)

val spin_of_bool : bool -> spin
val bool_of_spin : spin -> bool

type t = private {
  num_vars : int;
  offset : float;  (** constant term; irrelevant to argmin, tracked for QUBO round-trips *)
  h : float array;  (** linear coefficients, length [num_vars] *)
  couplers : ((int * int) * float) array;
      (** quadratic coefficients with [i < j], strictly ordered by [(i, j)],
          no duplicates, no zero entries *)
  row_start : int array;
      (** CSR adjacency row table, length [num_vars + 1]: the neighbors of
          variable [i] occupy [col]/[weight] slots
          [row_start.(i) .. row_start.(i+1) - 1], neighbor indices ascending *)
  col : int array;
      (** CSR neighbor indices; every coupler appears twice (once per
          endpoint), so [Array.length col = 2 * Array.length couplers] *)
  weight : float array;  (** CSR coupling values, parallel to [col] *)
}

(** {1 Construction} *)

val max_index : int
(** The largest variable index a coupler may name, [2^31 - 1]: a pair is
    keyed by one int.  Naming a larger index raises [Invalid_argument]. *)

module Builder : sig
  type problem := t
  type t

  val create : ?num_vars:int -> unit -> t

  (** Coefficients accumulate: adding to the same variable or pair twice sums
      the values, mirroring the additive composition of penalty functions
      (paper section 4.3.5). Variable indices grow the problem as needed.
      Each coefficient is summed in the order its terms were added, starting
      from [0.0], and a coupler that sums to [0.0] is dropped. *)

  val add_offset : t -> float -> unit
  val add_h : t -> int -> float -> unit
  val add_j : t -> int -> int -> float -> unit

  (** [add_problem b p ~var_map] sums a whole sub-Hamiltonian into the
      builder, renaming variable [v] of [p] to [var_map.(v)]. *)
  val add_problem : t -> problem -> var_map:int array -> unit

  val build : t -> problem
end

val create : num_vars:int -> h:float array -> j:((int * int) * float) list -> ?offset:float -> unit -> t
(** Convenience one-shot constructor; validates indices and merges duplicate
    couplers.  Raises [Invalid_argument] on a pair index at or above
    [num_vars] (even one whose terms sum to [0.0]) and on a NaN or infinite
    [h], coupler value or [offset]. *)

val empty : t

(** {1 Evaluation} *)

val energy : t -> spin array -> float
(** [energy p sigma] evaluates the Hamiltonian.  [sigma] must have length
    [num_vars] and contain only [+1]/[-1]. *)

val energy_delta : t -> spin array -> int -> float
(** [energy_delta p sigma i] is [energy p (flip i sigma) -. energy p sigma],
    computed in O(degree of i). *)

val local_field : t -> spin array -> int -> float
(** [h.(i) + sum_j J_ij * sigma_j]: the effective field seen by spin [i].
    A flat CSR walk over [row_start]/[col]/[weight], O(degree of i). *)

val degree : t -> int -> int
(** Number of couplers touching variable [i]. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors p i f] calls [f j J_ij] for every coupler touching [i],
    in ascending neighbor order. *)

(** {1 Algebra and transforms} *)

val add : t -> t -> t
(** Pointwise sum of Hamiltonians over the larger variable set. *)

val scale : t -> float -> t
(** Multiply every coefficient (and the offset) by a positive factor;
    preserves argmin. *)

val relabel : t -> int array -> num_vars:int -> t
(** [relabel p map ~num_vars] renames variable [v] to [map.(v)].  Couplers
    mapped onto the same pair are summed; a coupler mapped onto a single
    variable (both ends merged) is an error. *)

val num_interactions : t -> int
val num_terms : t -> int
(** Count of nonzero linear + quadratic terms (the "terms" metric of
    section 6.1). *)

val max_abs_h : t -> float

val max_j : t -> float
val min_j : t -> float
(** Largest/smallest coupler value; [0.0] only for a problem with no
    couplers (an all-negative problem has a negative [max_j]). *)

val get_j : t -> int -> int -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
