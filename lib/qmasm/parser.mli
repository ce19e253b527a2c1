(** Line-oriented parser for QMASM source (section 4.3's language). *)


val parse_string : string -> Ast.stmt list
(** Raises [Error] with a line number on malformed input. *)

val line_count : string -> int
(** Statement-bearing lines (blank and comment-only lines excluded) — the
    section 6.1 size metric. *)
