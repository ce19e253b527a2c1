(** Clause → Ising penalty compiler: a parsed {!Dimacs} formula becomes a
    plain {!Qac_ising.Problem.t} whose energy, with ancillas set optimally,
    {e equals} the violated-clause weight of the decoded assignment.  That
    exact accounting (Bian et al., arXiv 1811.02524) is what makes the
    ground states of the compiled Hamiltonian exactly the SAT models — or
    the MaxSAT optima — of the formula, so everything downstream of
    [Problem.t] (embedding, tiling, qbsolv decomposition, bit-parallel
    annealing, the serving tier) serves SAT workloads unchanged.

    Encodings, per clause of weight [w] (after deduplication; tautologies
    compile to nothing):
    - {b 1 literal}: direct field, [w/2 - w*s*sigma/2];
    - {b 2 literals}: direct field + coupler,
      [w/4 * (1 - s1*s1' - s2*s2' + s1 s2 s1' s2')];
    - {b 3 literals}: the gap-maximal OR gadget derived {e once} by
      {!Qac_cellgen.Gen.derive} (LP gap maximization with ancilla search)
      and cached; every literal polarity reuses the same derivation under
      the gauge transform [h_i -> s_i h_i], [J_ij -> s_i s_j J_ij], which
      preserves the spectrum — one LP solve serves all eight sign
      patterns;
    - {b k > 3 literals}: standard chaining through fresh ancillas,
      [(l1 v l2 v y1)(~y1 v l3 v y2)...(~y_{k-3} v l_{k-1} v l_k)], each
      link a 3-literal gadget; a violated clause excites exactly one link.

    Each gadget instance is scaled by [w / effective_gap] and shifted by
    its ground energy, so a satisfied clause contributes exactly 0 and a
    violated one exactly [w] (minimizing over its ancillas).  Hard clauses
    weigh [soft_weight_sum + 1] — never worth trading for any set of soft
    clauses.  A weight spread whose coefficient dynamic range exceeds
    [2^precision_bits] is refused with a {!Qac_diag.Diag.Error} (stage
    ["sat-compile"]), never silently clipped. *)

type options = {
  range : Qac_ising.Scale.range;
      (** coefficient box for the gadget LP (default {!Qac_ising.Scale.dwave_2000q}) *)
  precision_bits : int;
      (** refuse compiled problems whose coefficient dynamic range exceeds
          [2^precision_bits] (default 30) *)
  adjacency : (int -> int -> bool) option;
      (** restrict which of the gadget's internal couplers may be used
          (forwarded to {!Qac_cellgen.Gen.derive}); [None] = fully
          connected.  Gadgets derived under a restriction are not cached. *)
}

val default_options : options

type gadget = {
  derived : Qac_cellgen.Gen.derived;
      (** the canonical all-positive 3-literal OR cell (3 decision
          variables, then ancillas) *)
  effective_gap : float;
      (** min over ancillas of the violated row's energy, above ground —
          the exact per-unit-weight violation cost; at least [derived.gap] *)
  ancilla_for : bool array array;
      (** indexed by the 3-bit literal-truth row (literal 1 is the most
          significant bit): the ancilla values minimizing the gadget's
          energy on that row *)
}

val clause_gadget : ?options:options -> unit -> gadget
(** Derive (or fetch from the per-range cache) the 3-literal OR gadget.
    Raises {!Qac_diag.Diag.Error} if the LP finds no gadget under
    [options.range]/[options.adjacency] within the ancilla budget. *)

type lit = {
  var : int;  (** problem variable index (formula variable or chain ancilla) *)
  sign : int;  (** +1 positive literal, -1 negated *)
}

type sub_clause = {
  slits : lit array;  (** exactly 3, over formula variables and chain ancillas *)
  anc : int;  (** first problem index of this instance's gadget ancillas *)
}

type compiled_clause = {
  cweight : float;  (** effective weight ([hard_weight] for hard clauses) *)
  clits : lit array;  (** deduplicated original literals; [[||]] for
                          tautologies (compiled away) and empty clauses *)
  chain : int array;  (** chain-ancilla problem indices ([k - 3] of them) *)
  subs : sub_clause array;  (** gadget instances; empty for k <= 2 *)
}

type t = {
  formula : Dimacs.t;
  problem : Qac_ising.Problem.t;
      (** variables [0 .. num_formula_vars - 1] are DIMACS variables
          [1 .. num_vars] in order; ancillas follow *)
  num_formula_vars : int;
  num_ancillas : int;
  hard_weight : float;
  gadget : gadget;
  clauses : compiled_clause array;  (** parallel to [formula.clauses] *)
}

val compile : ?options:options -> Dimacs.t -> t
(** Raises {!Qac_diag.Diag.Error} (stage ["sat-compile"]) on an empty hard
    clause (the formula is trivially unsatisfiable), a non-finite weight
    sum, or a weight spread beyond [2^precision_bits]. *)

val decode : t -> Qac_ising.Problem.spin array -> bool array
(** Truth values of the formula variables (ancillas dropped): variable [v]
    of the DIMACS file is entry [v - 1]. *)

val spins_of_assignment : t -> bool array -> Qac_ising.Problem.spin array
(** The full spin configuration for an assignment with every ancilla at its
    conditional optimum.  Central invariant (tested exhaustively):
    [Problem.energy t.problem (spins_of_assignment t a) = cost t a]. *)

val repair : t -> Qac_ising.Problem.spin array -> Qac_ising.Problem.spin array
(** Reset every ancilla of a read to its conditional optimum, keeping the
    decision spins: [spins_of_assignment t (decode t spins)].  Use before
    energy accounting — a sampler's ancillas may sit above their optimum,
    in which case the raw energy over-reports the violation cost. *)

val cost : t -> bool array -> float
(** [hard_weight * hard-violations + violated soft weight] — the quantity
    the compiled Hamiltonian's energy realizes (0 for a model of all hard
    clauses and all soft clauses). *)
