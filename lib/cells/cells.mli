(** The standard-cell library of Table 5: every cell the ABC optimizer
    targets by default, expressed as a quadratic pseudo-Boolean function
    whose ground states are exactly the cell's valid input/output relations.

    Hamiltonian variable order is always [inputs..., output, ancillas...].
    Coefficients are the paper's (chosen to honor the hardware ranges while
    maximizing the valid/invalid gap). *)

type t = {
  name : string;  (** QMASM macro name, e.g. "AND" *)
  inputs : string list;  (** pin names in Hamiltonian order, e.g. ["A"; "B"] *)
  output : string;  (** "Y", or "Q" for flip-flops *)
  num_ancillas : int;
  logic : bool array -> bool;  (** combinational function of the inputs *)
  hamiltonian : Qac_ising.Problem.t;
  is_flip_flop : bool;
      (** DFF cells relate a D input at time [t] to a Q output at time
          [t+1]; their "logic" is the identity (section 4.3.3). *)
}

val not_ : t
val and_ : t
val or_ : t
val nand : t
val nor : t
val xor : t
val xnor : t

(** inputs [A; B; S]; [Y = if S then B else A] *)
val mux : t

(** [Y = not ((A and B) or C)] *)
val aoi3 : t

(** [Y = not ((A or B) and C)] *)
val oai3 : t

(** [Y = not ((A and B) or (C and D))] *)
val aoi4 : t

(** [Y = not ((A or B) and (C or D))] *)
val oai4 : t

val dff_p : t
val dff_n : t

val all : t list

val find : string -> t option
(** Lookup by name (case-insensitive). *)

val pin_names : t -> string list
(** All pin names in Hamiltonian variable order, ancillas as ["$a"],
    ["$b"]. *)

val truth_table : t -> Qac_cellgen.Truthtab.t
(** Valid rows over [inputs @ [output]] (ancillas excluded). *)

(** [verify cell] exhaustively checks that the visible parts of the
    Hamiltonian's ground states are exactly the cell's truth table, that
    every valid row is realized, and that the gap to the first excited state
    is positive.  Returns the gap. *)
val verify : t -> (float, string) result

val ground : Qac_ising.Problem.t
(** [H_GND(s) = s], minimized at False (section 4.3.4). *)

val power : Qac_ising.Problem.t
(** [H_VCC(s) = -s], minimized at True. *)

val wire : Qac_ising.Problem.t
(** Two-variable chain [H(sA, sY) = -sA * sY] (Table 1). *)
