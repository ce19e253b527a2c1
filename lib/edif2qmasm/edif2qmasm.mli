(** The EDIF -> QMASM compilation step (section 4.3): every netlist cell
    becomes a [!use_macro] instantiation of its Table 5 standard-cell macro,
    every net becomes same-value chains among the pins it joins, and
    constants become ground/power weights (section 4.3.4).

    Sequential netlists must be time-unrolled first
    ({!Qac_netlist.Passes.unroll}); a DFF cell reaching this stage is
    instantiated as a [DFF_P]/[DFF_N] macro, which relates D and Q within
    one time step (a steady-state constraint). *)

(** Symbol naming in the generated QMASM:
    - bit [i] of a multi-bit port [p] is [p[i]]; single-bit ports keep
      their name;
    - internal nets are [$7] (the [$] marks them qmasm-internal);
    - cell instances are [id00001], [id00002], ... in netlist cell order,
      so pins are e.g. [id00003.A]. *)

val port_symbol : width:int -> string -> int -> string

val stdcell_filename : string
(** ["stdcell.qmasm"], the include name emitted at the top of every
    generated program. *)

(** [resolve name] maps {!stdcell_filename} to the standard-cell library's
    statements, parsed once per process (when this module is initialised,
    so concurrent callers share one parse); pass it (or a wrapper) to
    [Qmasm.load] or [Macro.expand]. *)
val resolve : string -> Qac_qmasm.Ast.stmt list option

(** [convert netlist] produces the QMASM program as source text and as
    statements, in one walk: the statements are exactly
    [Qac_qmasm.Parser.parse_string text], so a compile hands them to
    [Macro.expand] and parses no QMASM of its own.  The text begins with
    [!include "stdcell.qmasm"]; program inputs/outputs keep their port
    names, so pins like [--pin "C[7:0] := 10001111"] can be applied by name.
    The equation holds when every port name reads back as one QMASM symbol:
    non-empty, no leading [!], and no [#], [:=], whitespace or brackets,
    as Verilog elaboration ensures. *)
val convert : Qac_netlist.Netlist.t -> string * Qac_qmasm.Ast.stmt list

(** [load ?options netlist] converts and assembles in one step: the
    generated statements are macro-expanded and the logical Ising problem
    produced. *)
val load : ?options:Qac_qmasm.Assemble.options -> Qac_netlist.Netlist.t -> Qac_qmasm.Assemble.t

val line_count : string -> int
(** Statement-bearing lines of generated QMASM, excluding the included
    standard-cell library (the section 6.1 metric: the paper reports 736
    lines + 232 library lines for Listing 7). *)
