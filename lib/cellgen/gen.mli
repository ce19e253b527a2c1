(** Derivation of quadratic pseudo-Boolean penalty functions from truth
    tables — the machinery behind Tables 2, 3 and 4 of the paper.

    Given a truth table, we look for coefficients h, J such that every valid
    row evaluates to a common minimum energy [k] and every invalid row to at
    least [k + gap], maximizing [gap] subject to the hardware coefficient
    box.  This is exactly the paper's system of (in)equalities, solved as a
    linear program.  When no ancilla-free solution exists (XOR, XNOR — the
    only 2-input/1-output cases, per Whitfield et al.), ancilla columns are
    searched as in Table 3. *)

type derived = {
  table : Truthtab.t;  (** the (possibly augmented) table actually realized *)
  num_ancillas : int;
  problem : Qac_ising.Problem.t;
  ground_energy : float;  (** the paper's [k] *)
  gap : float;  (** the paper's margin between valid and invalid rows *)
}

(** [derive_exact ?range ?adjacency table] solves the LP for [table] as
    given (no ancilla search).  [adjacency i j] (for [i < j]) says whether
    the target fabric offers a coupler between cell variables [i] and [j];
    disallowed pairs have their J pinned to zero, so the result is
    realizable on that connectivity verbatim (default: fully connected, the
    paper's assumption).  [None] when the optimum gap is below 1e-6, i.e.
    the system of inequalities is unsolvable in the paper's sense — which an
    adjacency restriction can cause even where the unrestricted cell
    exists. *)
val derive_exact :
  ?range:Qac_ising.Scale.range ->
  ?adjacency:(int -> int -> bool) ->
  Truthtab.t ->
  derived option

(** [derive ?range ?adjacency ?max_ancillas table] tries 0 ancillas, then 1,
    ... up to [max_ancillas] (default 2), enumerating or sampling
    ancilla-column assignments, and returns the gap-maximal solution at the
    smallest sufficient ancilla count.  [adjacency] is applied at every
    ancilla count, and must therefore answer for ancilla indices too
    (ancillas take indices [n .. n + max_ancillas - 1] of the augmented
    table). *)
val derive :
  ?range:Qac_ising.Scale.range ->
  ?adjacency:(int -> int -> bool) ->
  ?max_ancillas:int ->
  ?seed:int ->
  Truthtab.t ->
  derived option

(** [verify d] exhaustively checks that the ground states of [d.problem] are
    exactly the valid rows of [d.table] and that the spectral gap is at least
    [d.gap - 1e-6]. *)
val verify : derived -> bool

(** [row_energy_coeffs ~num_vars row] lays out the energy of a spin row as a
    linear function of the coefficient vector [h_0..h_{n-1}, J_01, J_02, ...]
    — the symbolic rows of Tables 2 and 4. *)
val row_energy_coeffs : num_vars:int -> Qac_ising.Problem.spin array -> float array

val coeff_names : num_vars:int -> string array
(** ["h_0"; ...; "J_0,1"; ...] matching [row_energy_coeffs] order. *)
