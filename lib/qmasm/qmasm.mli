(** Facade over the QMASM toolchain: parse -> expand -> assemble, and
    solution reporting. *)


(** [load ?options ?resolve src] runs the full front half of qmasm;
    [resolve] supplies [!include] file contents ([None] for unknown
    names). *)
val load :
  ?options:Assemble.options ->
  ?resolve:(string -> string option) ->
  string ->
  Assemble.t

(** [report program spins] renders a solution the way qmasm does: visible
    symbols (no ["$"]), sorted, plus per-assertion outcomes.  [report
    program] resolves every symbol once; apply it to each read. *)
val report :
  Assemble.t ->
  Qac_ising.Problem.spin array ->
  (string * bool) list * (Ast.bexpr * bool) list

val to_minizinc : Assemble.t -> string
