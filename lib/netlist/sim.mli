(** Netlist simulation: the polynomial-time verifier of the paper's
    NP-solving recipe (section 5.1 — "run the program forward ... and discard
    any results found to be incorrect"), and the differential-testing oracle
    for the synthesis pipeline. *)

(** [comb netlist ~inputs] evaluates a combinational netlist.  [inputs] maps
    every input port to its bit values (LSB first); the result maps every
    output port likewise.  Fails on sequential netlists. *)
val comb : Netlist.t -> inputs:(string * bool array) list -> (string * bool array) list

(** [run netlist ~inputs] runs a multi-cycle simulation from the all-false
    initial state, feeding one input map per cycle: each cycle's outputs are
    computed from the current state and inputs, then every flip-flop loads
    its D value. *)
val run :
  Netlist.t -> inputs:(string * bool array) list list -> (string * bool array) list list

(** [check_relation netlist ~assignment] tests whether a full input/output
    assignment is a valid behaviour of a combinational netlist: runs the
    inputs forward and compares every output.  This is how annealer samples
    are verified. *)
val check_relation : Netlist.t -> assignment:(string * bool array) list -> bool
