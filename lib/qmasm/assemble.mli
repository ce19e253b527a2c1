(** Assembly: flat QMASM statements -> a logical Ising problem plus the
    symbol table, pins and assertions (section 4.3).

    Symbols are mapped to variable indices in first-occurrence order.
    [!alias] always merges symbols; chains ([A = B]) either merge their
    endpoints into one variable (qmasm's optimization, section 4.4) or
    become ferromagnetic couplers of strength [-chain_strength].  Pins add a
    strong bias field.  Per the paper, the default chain strength is twice
    the largest-in-magnitude J value appearing literally in the code. *)


type options = {
  merge_chains : bool;  (** default false: chains stay as couplers *)
  chain_strength : float option;  (** [None]: 2 x max literal |J| *)
  pin_strength : float option;  (** [None]: same default as chains *)
}

val default_options : options

type index
(** The symbol table: each symbol interned once, mapped to its variable. *)

type t = {
  problem : Qac_ising.Problem.t;
  symbols_of_var : string list array;  (** every symbol merged into each variable *)
  pins : (string * bool) list;
  chains : (string * string) list;  (** explicit chain statements, for reports *)
  assertions : Ast.bexpr list;
  chain_strength : float;
  pin_strength : float;
  index : index;  (** every symbol's variable; read with {!variable} *)
}

val assemble : ?options:options -> Ast.stmt list -> t
(** Raises a ["qmasm-assemble"] [Diag.Error] on unexpanded macro
    statements, an anti-chain between merged symbols, and a coefficient
    that sums (or doubles into a chain strength) to a non-finite value. *)

val variable : t -> string -> int option
(** Variable index of a symbol (post merging): one hash lookup. *)

val num_symbols : t -> int

(** [assignment_of_spins t spins] names every symbol's Boolean value.
    Raises [Qac_diag.Diag.Error] when [spins] is not one spin per
    variable, as do the checkers below. *)
val assignment_of_spins : t -> Qac_ising.Problem.spin array -> (string * bool) list

(** Same, restricted to symbols without ["$"] (qmasm hides internal
    variables by default).  [visible_assignment t] selects the symbols
    once; apply the result to each read. *)
val visible_assignment : t -> Qac_ising.Problem.spin array -> (string * bool) list

(** [check_assertions t] resolves every symbol of every [!assert] to its
    variable once; the result evaluates them against one read and returns
    per-assertion outcomes, in program order. *)
val check_assertions : t -> Qac_ising.Problem.spin array -> (Ast.bexpr * bool) list
