(** Reference interpreter for elaborated Verilog modules.

    Two-state (0/1), unsigned semantics over OCaml ints (widths are capped at
    [Elab.max_width]).  This is the ground truth the synthesizer is tested
    against, and the polynomial-time verifier used to validate annealer
    samples at the source level. *)

type t


val create : Elab.t -> t

val width : t -> string -> int
(** Declared width of a port or net. *)

(** [comb_outputs t ~inputs] evaluates a purely combinational module.
    [inputs] maps input-port names to integer values (truncated to port
    width); the result lists every output port.  Raises [Error] on
    combinational cycles or missing inputs. *)
val comb_outputs : t -> inputs:(string * int) list -> (string * int) list

(** [peek t ~inputs name] evaluates any net (not just outputs) in a
    combinational module — handy for tests that look at internal wires. *)
val peek : t -> inputs:(string * int) list -> string -> int

val run : t -> inputs:(string * int) list list -> (string * int) list list
(** Multi-cycle simulation from the all-zero state (two-state semantics),
    one input map per cycle: each cycle, combinational logic settles
    against the current state, every clocked block fires (clock edges are
    ignored — time is discrete, matching section 4.3.3), and the cycle's
    output-port values are collected. *)
