(** Generation of [stdcell.qmasm] — the standard-cell library file that
    edif2qmasm-style output [!include]s (section 4.3.2, Listing 2).

    Every Table 5 cell becomes a QMASM macro whose body lists the cell's
    h and J coefficients over its pin names (ancillas as [$a], [$b]), with an
    [!assert] stating the cell's logic for post-solution checking. *)

open Qac_ising

let float_str v =
  (* Render exactly: 0.5, -0.25, 0.333333333333 — enough digits to
     round-trip through the QMASM parser's float_of_string. *)
  let s = Printf.sprintf "%.12g" v in
  s

(* The assertion text for each cell, over 0/1-valued symbols. *)
let assertion_text (cell : Cells.t) =
  match cell.Cells.name with
  | "NOT" -> Some "Y = 1 - A"
  | "AND" -> Some "Y = A & B"
  | "OR" -> Some "Y = A | B"
  | "NAND" -> Some "Y = 1 - (A & B)"
  | "NOR" -> Some "Y = 1 - (A | B)"
  | "XOR" -> Some "Y = A ^ B"
  | "XNOR" -> Some "Y = 1 - (A ^ B)"
  | "MUX" -> Some "Y = S * B + (1 - S) * A"
  | "AOI3" -> Some "Y = 1 - ((A & B) | C)"
  | "OAI3" -> Some "Y = 1 - ((A | B) & C)"
  | "AOI4" -> Some "Y = 1 - ((A & B) | (C & D))"
  | "OAI4" -> Some "Y = 1 - ((A | B) & (C | D))"
  | "DFF_P" | "DFF_N" -> Some "Q = D"
  | _ -> None

let macro_of_cell (cell : Cells.t) =
  let pins = Array.of_list (Cells.pin_names cell) in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# %s: %d input(s), %d ancilla(s)\n" cell.Cells.name (List.length cell.Cells.inputs)
    cell.Cells.num_ancillas;
  add "!begin_macro %s\n" cell.Cells.name;
  (match assertion_text cell with
   | Some text -> add "  !assert %s\n" text
   | None -> ());
  let p = cell.Cells.hamiltonian in
  Array.iteri
    (fun v h -> if h <> 0.0 then add "  %s %s\n" pins.(v) (float_str h))
    p.Problem.h;
  Array.iter
    (fun ((i, j), v) -> add "  %s %s %s\n" pins.(i) pins.(j) (float_str v))
    p.Problem.couplers;
  add "!end_macro %s\n" cell.Cells.name;
  Buffer.contents buf

(* Built when the module is initialised, before any domain can start, so
   concurrent first calls cannot race. *)
let text =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# stdcell.qmasm --- standard-cell library (Table 5 of the paper)\n\
     # Cells are quadratic pseudo-Boolean penalty functions: each macro's\n\
     # Hamiltonian is minimized exactly on the cell's valid input/output rows.\n\n";
  List.iter
    (fun cell ->
       Buffer.add_string buf (macro_of_cell cell);
       Buffer.add_char buf '\n')
    Cells.all;
  Buffer.contents buf

let contents () = text

(** Number of statement-bearing lines, for the section 6.1 metrics (the
    paper reports 232 lines for its stdcell.qmasm). *)
let line_count () =
  String.split_on_char '\n' (contents ())
  |> List.filter (fun line ->
      let line = match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      String.trim line <> "")
  |> List.length
