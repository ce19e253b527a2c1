(** Abstract syntax of the QMASM language (Pakin, "A quantum macro
    assembler"; section 4.3 of the compiled paper).

    A program is a sequence of line statements:

    - ["A -1"] — a weight (linear coefficient h);
    - ["A B -5"] — a coupler (quadratic coefficient J);
    - ["A = B"] / ["A /= B"] — chain / anti-chain shortcuts biasing two
      variables to equal / opposite values;
    - ["A := true"], ["C[7:0] := 10001111"] — pins, fixing variables;
    - ["!begin_macro M" ... "!end_macro M"], ["!use_macro M inst"] — macros;
    - ["!include <file>"] — file inclusion (the standard-cell library);
    - ["!assert expr"] — post-solution checks;
    - ["!alias A B"] — symbol aliasing.

    Symbols may be hierarchical ([inst.A]); a [$] anywhere in a symbol marks
    it internal/uninteresting, omitted from reports. *)

(** Assertion expressions, evaluated over the returned solution. *)
type aexpr =
  | Int of int
  | Sym of string  (** a single Boolean variable, read as 0/1 *)
  | Sym_bit of string * int  (** [x[3]] *)
  | Sym_range of string * int * int  (** [x[7:0]], MSB first, read as an integer *)
  | Neg of aexpr
  | Bnot of aexpr
  | Lnot of bexpr
  | Arith of arith_op * aexpr * aexpr

and arith_op = A_add | A_sub | A_mul | A_div | A_mod | A_and | A_or | A_xor | A_shl | A_shr

and bexpr =
  | Cmp of cmp_op * aexpr * aexpr
  | And of bexpr * bexpr
  | Or of bexpr * bexpr

and cmp_op = C_eq | C_ne | C_lt | C_le | C_gt | C_ge

type stmt =
  | Weight of string * float
  | Coupler of string * string * float
  | Chain of string * string
  | Anti_chain of string * string
  | Pin of (string * bool) list  (** already expanded to per-bit pins *)
  | Alias of string * string
  | Assertion of bexpr
  | Include of string
  | Begin_macro of string
  | End_macro of string
  | Use_macro of string * string list

let rec pp_aexpr fmt = function
  | Int v -> Format.fprintf fmt "%d" v
  | Sym s -> Format.pp_print_string fmt s
  | Sym_bit (s, i) -> Format.fprintf fmt "%s[%d]" s i
  | Sym_range (s, msb, lsb) -> Format.fprintf fmt "%s[%d:%d]" s msb lsb
  | Neg a -> Format.fprintf fmt "(-%a)" pp_aexpr a
  | Bnot a -> Format.fprintf fmt "(~%a)" pp_aexpr a
  | Lnot b -> Format.fprintf fmt "(!%a)" pp_bexpr b
  | Arith (op, a, b) ->
    let sym =
      match op with
      | A_add -> "+"
      | A_sub -> "-"
      | A_mul -> "*"
      | A_div -> "/"
      | A_mod -> "%"
      | A_and -> "&"
      | A_or -> "|"
      | A_xor -> "^"
      | A_shl -> "<<"
      | A_shr -> ">>"
    in
    Format.fprintf fmt "(%a %s %a)" pp_aexpr a sym pp_aexpr b

and pp_bexpr fmt = function
  | Cmp (op, a, b) ->
    let sym =
      match op with
      | C_eq -> "="
      | C_ne -> "/="
      | C_lt -> "<"
      | C_le -> "<="
      | C_gt -> ">"
      | C_ge -> ">="
    in
    Format.fprintf fmt "%a %s %a" pp_aexpr a sym pp_aexpr b
  | And (a, b) -> Format.fprintf fmt "(%a && %a)" pp_bexpr a pp_bexpr b
  | Or (a, b) -> Format.fprintf fmt "(%a || %a)" pp_bexpr a pp_bexpr b

(** The symbol an indexed reference [s[i]] reads. *)
let bit_symbol s i = Printf.sprintf "%s[%d]" s i

(** The symbols [s[msb:lsb]] reads, most significant first. *)
let range_symbols s msb lsb =
  let step = if msb >= lsb then -1 else 1 in
  List.init (abs (msb - lsb) + 1) (fun k -> bit_symbol s (msb + (k * step)))

(** Symbols an assertion reads: bit and range references name their
    per-bit symbols, not the base name. *)
let rec aexpr_syms = function
  | Int _ -> []
  | Sym s -> [ s ]
  | Sym_bit (s, i) -> [ bit_symbol s i ]
  | Sym_range (s, msb, lsb) -> range_symbols s msb lsb
  | Neg a | Bnot a -> aexpr_syms a
  | Lnot b -> bexpr_syms b
  | Arith (_, a, b) -> aexpr_syms a @ aexpr_syms b

and bexpr_syms = function
  | Cmp (_, a, b) -> aexpr_syms a @ aexpr_syms b
  | And (a, b) | Or (a, b) -> bexpr_syms a @ bexpr_syms b

(** Rename every symbol in an assertion. *)
let rec map_aexpr ~f = function
  | Int v -> Int v
  | Sym s -> Sym (f s)
  | Sym_bit (s, i) -> Sym_bit (f s, i)
  | Sym_range (s, a, b) -> Sym_range (f s, a, b)
  | Neg a -> Neg (map_aexpr ~f a)
  | Bnot a -> Bnot (map_aexpr ~f a)
  | Lnot b -> Lnot (map_bexpr ~f b)
  | Arith (op, a, b) -> Arith (op, map_aexpr ~f a, map_aexpr ~f b)

and map_bexpr ~f = function
  | Cmp (op, a, b) -> Cmp (op, map_aexpr ~f a, map_aexpr ~f b)
  | And (a, b) -> And (map_bexpr ~f a, map_bexpr ~f b)
  | Or (a, b) -> Or (map_bexpr ~f a, map_bexpr ~f b)

let is_internal_symbol s = String.contains s '$'

(** Render a statement back to QMASM source (inverse of [Parser] for
    statement lists without macros re-folded). *)
let stmt_to_string = function
  | Weight (a, w) -> Printf.sprintf "%s %.12g" a w
  | Coupler (a, b, j) -> Printf.sprintf "%s %s %.12g" a b j
  | Chain (a, b) -> Printf.sprintf "%s = %s" a b
  | Anti_chain (a, b) -> Printf.sprintf "%s /= %s" a b
  | Pin pins ->
    String.concat "\n"
      (List.map (fun (name, v) -> Printf.sprintf "%s := %s" name (if v then "true" else "false")) pins)
  | Alias (a, b) -> Printf.sprintf "!alias %s %s" a b
  | Assertion b -> Format.asprintf "!assert %a" pp_bexpr b
  | Include f -> Printf.sprintf "!include \"%s\"" f
  | Begin_macro m -> Printf.sprintf "!begin_macro %s" m
  | End_macro m -> Printf.sprintf "!end_macro %s" m
  | Use_macro (m, insts) -> Printf.sprintf "!use_macro %s %s" m (String.concat " " insts)

let program_to_string stmts = String.concat "\n" (List.map stmt_to_string stmts) ^ "\n"

