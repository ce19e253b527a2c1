(** DIMACS CNF/WCNF frontend: the standard SAT/MaxSAT interchange format,
    parsed into a plain clause list ready for {!Compile}.

    Supported subset (see [lib/sat/README.md] for the grammar):
    - comment lines starting with [c];
    - a [p cnf VARS CLAUSES] or [p wcnf VARS CLAUSES [TOP]] header;
    - clauses as whitespace-separated nonzero literals terminated by [0],
      free to span (or share) lines;
    - WCNF clauses prefixed by a positive weight, with [h] (new-style WCNF)
      or any weight at or above the header's [TOP] marking a hard clause;
    - a line consisting of [%] ends the clause section (the SATLIB
      convention, whose files close with ["%\n0\n"]).

    Malformed input — missing or duplicate header, literals out of the
    declared range, non-positive or non-finite weights, an unterminated
    final clause, a clause count that contradicts the header — raises
    {!Qac_diag.Diag.Error} with stage ["dimacs"] and the offending line
    number. *)

type weight =
  | Hard  (** must hold; violating it dominates every soft clause *)
  | Soft of float  (** MaxSAT: violating it costs this much *)

type clause = {
  lits : int array;
      (** DIMACS literals: [v] for variable [v], [-v] for its negation,
          [1 <= v <= num_vars]; never 0.  May be empty (an always-violated
          clause) and may repeat or contradict itself — {!Compile}
          normalizes. *)
  weight : weight;
}

type mode = Cnf | Wcnf

type t = {
  num_vars : int;  (** declared variable count; variables are [1..num_vars] *)
  clauses : clause array;  (** in file order *)
  mode : mode;
  top : float option;  (** WCNF hard-clause threshold, when the header had one *)
}

val parse : string -> t
(** Parse DIMACS text.  Raises {!Qac_diag.Diag.Error} (stage ["dimacs"])
    with a line number on malformed input. *)

val parse_file : string -> t
(** {!parse} on a file's contents; I/O failures raise [Sys_error]. *)

val num_hard : t -> int
val num_soft : t -> int

val soft_weight_sum : t -> float

val violations : t -> bool array -> int * float
(** [(hard clauses violated, total weight of soft clauses violated)] under
    an assignment of the [num_vars] formula variables. *)

val satisfied : t -> bool array -> bool
(** Every hard clause holds (soft clauses are free to fail). *)
