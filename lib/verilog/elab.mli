(** Elaboration: turn a parsed design into one flat module with resolved
    widths.

    Elaboration evaluates parameters, merges split declarations
    ([output x; reg [5:0] x;]), unrolls constant-bound [for] loops, and
    inlines module instances (child nets are prefixed with
    ["<instance>."]).  The result is what the interpreter and the
    synthesizer consume. *)

type net = {
  width : int;
  left : int;  (** the range's left (most significant) index *)
  right : int;  (** the right (least significant) index; [left < right] is an
                    ascending range like Listing 5's [wire [1:10]] *)
  is_reg : bool;
  dir : Ast.direction option;
}

(** [storage_bit net i] maps a declared index to its storage position
    (0 = least significant).  Raises [Error] when out of range. *)
val storage_bit : net -> int -> int

(** [select_bits net a b] resolves a part-select [x[a:b]] to
    [(low_storage_bit, width)]; the select direction must match the
    declaration. *)
val select_bits : net -> int -> int -> int * int

type t = {
  name : string;
  ports : (string * Ast.direction * int) list;  (** name, direction, width *)
  nets : (string * net) list;  (** in declaration order *)
  assigns : (Ast.lvalue * Ast.expr) list;
  clocked : (Ast.edge * Ast.statement list) list;
      (** [always @(posedge/negedge ...)] blocks *)
  comb : Ast.statement list list;  (** [always @*] blocks *)
}


(** [elaborate ?top design] elaborates the module named [top] (default: the
    last module in the design, conventionally the top).  Nets wider than 62
    bits are rejected: the interpreter packs values into OCaml ints. *)
val elaborate : ?top:string -> Ast.design -> t

val find_net : t -> string -> net option

val net_width : t -> string -> int
(** Raises [Error] for undeclared names. *)

(** [eval_const ?env e] evaluates a constant expression (numbers, parameters
    already substituted, arithmetic).  Used for ranges, loop bounds and
    replication counts. *)
val eval_const : ?env:(string * int) list -> Ast.expr -> int
