(** S-expressions, as used by the EDIF netlist format (section 4.2 of the
    paper).  An EDIF netlist is a single large s-expression; this module
    provides the reader and printer shared by [Qac_edif]. *)

type t =
  | Atom of string  (** a bare token or a ["quoted string"] *)
  | List of t list

val atom : string -> t
val list : t list -> t

(** Raised by the reader on malformed input, and by {!atom_exn}.  The
    reader raises nothing else: any string either parses or raises
    [Parse_error].  Callers that take untrusted text map it to their own
    error (as [Qac_edif.Edif.of_string] does). *)
exception Parse_error of string

(** [parse_string s] parses exactly one s-expression from [s], ignoring
    surrounding whitespace and [;] line comments.  Raises [Parse_error] on
    malformed input or trailing garbage.  Runs in time linear in [s]. *)
val parse_string : string -> t

(** [parse_many s] parses zero or more s-expressions from [s].  Raises
    [Parse_error] on malformed input. *)
val parse_many : string -> t list

(** Pretty-print with indentation, EDIF-style: a list whose width is at
    most 72 goes on one line; a longer one puts its head after the
    parenthesis and each further item on its own line, indented two more
    spaces than the list.  The width is part of the output contract: an
    atom counts its unquoted length and a list counts 2 plus one separator
    per item (n, not n - 1).  Runs in time linear in the output. *)
val to_string : t -> string

(** Compact single-line rendering.  Both printers quote an atom that is
    empty, starts with [;], or holds whitespace, a parenthesis or a double
    quote, escaping backslashes and double quotes inside the quotes, so
    {!parse_string} reads back what they print. *)
val to_string_compact : t -> string

val pp : Format.formatter -> t -> unit

(** Structural equality (atoms compared case-sensitively). *)
val equal : t -> t -> bool

(** Accessors used when walking EDIF trees. *)

(** [tag sexp] is the head atom of a list, if any. *)
val tag : t -> string option

(** ASCII case-insensitive string equality, without copying either
    string (EDIF keywords are case-insensitive). *)
val tag_equal : string -> string -> bool

(** [has_tag ~tag sexp]: [sexp] is a list whose head atom equals [tag],
    case-insensitively. *)
val has_tag : tag:string -> t -> bool

(** [find_all ~tag sexp] returns the immediate children of [sexp] (a list)
    whose head atom equals [tag], case-insensitively (EDIF keywords are
    case-insensitive). *)
val find_all : tag:string -> t -> t list

(** [find ~tag sexp] is the first child found by [find_all], if any. *)
val find : tag:string -> t -> t option

(** [atom_exn sexp] extracts the string of an [Atom]; raises [Parse_error]
    on a list. *)
val atom_exn : t -> string
