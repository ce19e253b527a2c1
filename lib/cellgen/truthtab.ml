type t = {
  num_vars : int;
  valid : bool array list;
}

let create ~num_vars valid =
  List.iter
    (fun row ->
       if Array.length row <> num_vars then invalid_arg "Truthtab.create: row width mismatch")
    valid;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun row ->
       if Hashtbl.mem tbl row then invalid_arg "Truthtab.create: duplicate row";
       Hashtbl.add tbl row ())
    valid;
  { num_vars; valid }

let all_rows ~num_vars =
  List.init (1 lsl num_vars) (fun code ->
      Array.init num_vars (fun bit -> (code lsr (num_vars - 1 - bit)) land 1 = 1))

let of_function ~num_inputs f =
  let rows =
    List.map
      (fun inputs -> Array.append inputs [| f inputs |])
      (all_rows ~num_vars:num_inputs)
  in
  create ~num_vars:(num_inputs + 1) rows

let augment table ~ancillas =
  if List.length ancillas <> List.length table.valid then
    invalid_arg "Truthtab.augment: one ancilla row required per valid row";
  let widths = List.map Array.length ancillas in
  let width = match widths with [] -> 0 | w :: _ -> w in
  if List.exists (fun w -> w <> width) widths then
    invalid_arg "Truthtab.augment: ragged ancilla rows";
  create ~num_vars:(table.num_vars + width)
    (List.map2 Array.append table.valid ancillas)

let is_valid table row = List.exists (fun v -> v = row) table.valid

let spins_of_row row = Array.map (fun b -> if b then 1 else -1) row
let row_of_spins spins = Array.map (fun s -> s > 0) spins
