(** MiniZinc export: qmasm can "convert [programs] to various other formats
    for classical solution (e.g., a constraint problem for solution with
    MiniZinc)".  Each spin becomes a 0/1 variable; the objective is the
    integer-scaled Hamiltonian; visible symbols appear in the output item. *)

val of_program : Assemble.t -> string
