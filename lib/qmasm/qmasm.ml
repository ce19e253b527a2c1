(** Facade over the QMASM toolchain: parse, expand, assemble — and report.
    Stage failures raise [Qac_diag.Diag.Error] with their own provenance
    (["qmasm-parse"], ["qmasm-expand"], ["qmasm-assemble"]). *)

(** [load ?options ?resolve src] runs the full front half of qmasm:
    [resolve] supplies [!include] file contents (return [None] for unknown
    names). *)
let load ?options ?(resolve = fun _ -> None) src =
  let stmts = Parser.parse_string src in
  let flat = Macro.expand ~resolve stmts in
  Assemble.assemble ?options flat

(** Render a solution the way qmasm does: visible symbols, sorted, with
    assertion outcomes.  Symbols resolve once per program. *)
let report (a : Assemble.t) =
  let assignment = Assemble.visible_assignment a in
  let checks = Assemble.check_assertions a in
  fun spins -> (List.sort compare (assignment spins), checks spins)

let to_minizinc = Minizinc.of_program
