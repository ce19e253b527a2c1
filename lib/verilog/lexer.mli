(** Hand-written lexer for the Verilog subset. *)

type token =
  | Id of string
  | Int of int  (** plain decimal literal *)
  | Sized of int * int  (** [4'b1010] is [Sized (4, 10)] *)
  | Kw of string  (** reserved word *)
  | Sym of string  (** operator or punctuation *)
  | Eof


(** [tokenize src] lexes the whole input into [(token, line)] pairs, ending
    with [Eof].  Line comments, block comments and backtick directives are
    skipped; [===]/[!==]/[<<<]/[>>>] degrade to their 2-state versions. *)
val tokenize : string -> (token * int) list
