(** Gate-level netlists over the Table 5 standard-cell set.

    This is the compiler's mid-level IR: the Verilog frontend bit-blasts into
    it, optimization passes rewrite it, and the EDIF backend serializes it.
    A netlist is a DAG of cells; sequential designs additionally contain
    D flip-flops, whose outputs are state rather than combinational
    functions. *)

type kind =
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux  (** inputs [A; B; S], output [S ? B : A] *)
  | Aoi3  (** [not ((A and B) or C)] *)
  | Oai3  (** [not ((A or B) and C)] *)
  | Aoi4  (** [not ((A and B) or (C and D))] *)
  | Oai4  (** [not ((A or B) and (C or D))] *)
  | Dff_p
  | Dff_n

val kind_name : kind -> string
(** The standard-cell name, e.g. ["AND"]; matches [Qac_cells.Cells.find]. *)

val kind_of_name : string -> kind option
val kind_logic : kind -> bool array -> bool
(** Combinational function (identity for flip-flops). *)

type signal =
  | Zero
  | One
  | Net of int

type cell = {
  kind : kind;
  inputs : signal array;
  out : int;  (** the net this cell drives *)
}

type t = {
  name : string;
  num_nets : int;
  cells : cell array;
      (** in topological order for the combinational subgraph: every
          non-flip-flop cell appears after the cells driving its inputs *)
  inputs : (string * int array) list;  (** port name, driven nets, LSB first *)
  outputs : (string * signal array) list;
}

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : string -> t

  val add_input : t -> string -> int -> signal array
  (** [add_input b name width] declares an input port and returns its bit
      signals, LSB first. *)

  val set_output : t -> string -> signal array -> unit

  (** Gate constructors perform constant folding, algebraic simplification
      (idempotence, complements, double negation) and structural hashing, so
      equivalent subcircuits share cells. *)

  val not_ : t -> signal -> signal
  val and_ : t -> signal -> signal -> signal
  val or_ : t -> signal -> signal -> signal
  val xor_ : t -> signal -> signal -> signal
  val nand_ : t -> signal -> signal -> signal
  val nor_ : t -> signal -> signal -> signal
  val xnor_ : t -> signal -> signal -> signal

  val mux : t -> sel:signal -> a:signal -> b:signal -> signal
  (** [if sel then b else a]. *)

  val raw_cell : t -> kind -> signal array -> signal
  (** Hash-consed cell creation with no rewriting beyond commutative-input
      canonicalization; used by the tech-mapper and the EDIF reader. *)

  val dff_placeholder : t -> edge:[ `Pos | `Neg ] -> signal
  (** Allocate a flip-flop's Q net before its D cone exists, enabling
      feedback (e.g. a counter's [var <= var + 1]). *)

  val connect_dff : t -> q:signal -> d:signal -> unit

  val build : t -> netlist
end

(** {1 Accessors} *)

val find_input : t -> string -> int array option
val find_output : t -> string -> signal array option
val num_cells : t -> int
val num_flip_flops : t -> int
val is_combinational : t -> bool

val fanout_counts : t -> int array
(** Per-net use count (cell inputs + module outputs). *)

val cells_by_kind : t -> (kind * int) list

val estimated_logical_vars : t -> int
(** Number of logical Ising variables this netlist lowers to: one per input
    bit, one per cell output, plus each cell's ancillas (the section 6.1
    "logical variables" metric, before chain merging). *)
