(** Truth tables as penalty-function specifications.

    A table lists the *valid* rows of a relation over [num_vars] Boolean
    variables; the derived Hamiltonian must attain its minimum exactly on
    those rows (paper, section 4.3.2).  Variables are ordered
    [inputs..., output, ancillas...]. *)

type t = {
  num_vars : int;
  valid : bool array list;  (** each of length [num_vars]; no duplicates *)
}

val create : num_vars:int -> bool array list -> t

(** [of_function ~num_inputs f] builds the relation [Y = f(inputs)] over
    [num_inputs + 1] variables (output last), e.g. an AND gate's three-column
    table from [fun v -> v.(0) && v.(1)]. *)
val of_function : num_inputs:int -> (bool array -> bool) -> t

(** [augment table ~ancillas] appends ancilla columns: [ancillas] gives, for
    each valid row (in order), the values of the new variables.  This is the
    Table 3 operation. *)
val augment : t -> ancillas:bool array list -> t

val is_valid : t -> bool array -> bool

val all_rows : num_vars:int -> bool array list
(** All [2^num_vars] assignments, in binary counting order (variable 0 is the
    most significant bit, matching the row order of Tables 2 and 4). *)

val spins_of_row : bool array -> Qac_ising.Problem.spin array

val row_of_spins : Qac_ising.Problem.spin array -> bool array
