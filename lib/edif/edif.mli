(** EDIF 2 0 0 netlist interchange (section 4.2).

    The paper's pipeline passes netlists from Yosys to edif2qmasm as EDIF —
    "a single, large s-expression, which makes it easy to parse
    mechanically".  This module serializes a [Qac_netlist.Netlist.t] to EDIF
    text and parses such text back, enabling the textual
    Verilog -> EDIF -> QMASM pipeline (and its section 6.1 line-count
    metrics) to be reproduced faithfully.

    Conventions (matching Yosys output closely enough for our purposes):
    - one [cells] library declares every gate used, one [DESIGN] library
      holds the module;
    - multi-bit ports emit one scalar port per bit via
      [(rename out_3_ "out[3]")];
    - constant drivers appear as [GND]/[VCC] instances;
    - instances are named [id00001], [id00002], ... in cell order. *)

(** [port_bit_name name width i] names bit [i] of port [name]: ["name[i]"],
    or [name] itself when [width = 1].  The EDIF -> QMASM step names QMASM
    port symbols the same way. *)
val port_bit_name : string -> int -> int -> string

(** [instance_name idx] is the name of the cell at index [idx]:
    ["id00001"] for [0], zero-padded to at least five digits. *)
val instance_name : int -> string

val to_sexp : Qac_netlist.Netlist.t -> Qac_sexp.Sexp.t
val to_string : Qac_netlist.Netlist.t -> string

(** [of_string text] parses the s-expression text and rebuilds the netlist
    the EDIF tree describes.  Keywords match case-insensitively.  It raises
    only [Qac_diag.Diag.Error] with stage ["edif"]: on malformed text, a
    tree that is not EDIF, a missing or malformed part, an unknown cell, an
    unconnected or undriven pin, a combinational cycle, an instance declared
    twice, or a port whose width (its highest bit index + 1) exceeds the
    number of bits the interface declares for it — which bounds what a
    hostile bit index can make it allocate. *)
val of_string : string -> Qac_netlist.Netlist.t

(** [reread n] is [of_string (to_string n)], built without the text: the
    netlist the EDIF reader returns for [n], raising what it raises.  That
    is not [n] itself, since the reader rebuilds the netlist demand-driven
    through [Builder.raw_cell] (cells renumbered, dead cells dropped,
    duplicates merged, commutative inputs sorted).  Like the reader, it
    adds the inputs in port order, a flip-flop placeholder per flip-flop
    in cell order, each flip-flop's D cone in cell order, then the outputs
    in port order.  A port name containing ['['], a name both an input and
    an output carry, or a zero-width port takes the reader's own path on
    the {!to_sexp} tree, as does a netlist the reader rejects. *)
val reread : Qac_netlist.Netlist.t -> Qac_netlist.Netlist.t

val line_count : string -> int
(** Lines in a rendered EDIF file — the section 6.1 size metric: the
    newlines, plus one for a last line without one. *)
