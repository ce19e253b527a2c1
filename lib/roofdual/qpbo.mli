(** Roof duality (Hammer–Hansen–Simeone) via the Boros–Hammer implication
    network — the optimization qmasm applies through SAPI "to elide qubits
    whose final value can be determined a priori" (section 4.4).

    The QUBO is rewritten as a posiform (all coefficients nonnegative, over
    literals); each quadratic term contributes a symmetric pair of
    implication arcs of half its weight; a maximum flow from the
    constant-true literal to the constant-false literal then yields (a) the
    roof-dual lower bound on the minimum energy and (b) *weakly persistent*
    variable assignments: some optimal solution agrees with every fixed
    value. *)

type result = {
  fixed : (int * bool) list;  (** variable index, persistent value *)
  lower_bound : float;  (** roof-dual bound: min energy >= lower_bound *)
}

val solve : Qac_ising.Problem.t -> result
(** Ising wrapper; fixed values are reported as booleans
    ([true] = spin +1). *)

(** [simplify p] fixes every persistent variable, folding its couplings into
    its neighbors' fields.  Returns the reduced problem, the map from
    reduced indices to original indices, and the fixed assignments;
    [restore] rebuilds a full spin vector from a reduced one. *)
type simplified = {
  reduced : Qac_ising.Problem.t;
  kept : int array;  (** reduced index -> original index *)
  fixed : (int * bool) list;
}

val simplify : Qac_ising.Problem.t -> simplified

val restore :
  original_num_vars:int ->
  simplified ->
  Qac_ising.Problem.spin array ->
  Qac_ising.Problem.spin array
