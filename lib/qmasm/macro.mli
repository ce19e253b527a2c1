(** Macro and include expansion.

    [!use_macro M inst] instantiates macro [M] with every symbol prefixed by
    ["inst."] (so [A] inside the macro becomes [inst.A], referable from the
    outside, as in section 4.3.5's Listing 4).  Macros may use other macros;
    prefixes compose.  [!include <file>] splices another source file, with
    the file's parsed statements supplied by [resolve], so the standard-cell
    library can live in memory and be parsed once per process. *)


val expand : resolve:(string -> Ast.stmt list option) -> Ast.stmt list -> Ast.stmt list
(** The result contains no [Include], [Begin_macro], [End_macro] or
    [Use_macro] statements.  Raises [Error] on undefined or unterminated
    macros, circular includes, and unresolvable files. *)
