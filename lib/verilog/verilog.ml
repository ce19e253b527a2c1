(** Facade: one-call helpers over the frontend
    (parse -> elaborate -> interpret). *)

let parse = Parser.parse_design

let elaborate ?top src = Elab.elaborate ?top (parse src)

let interpreter ?top src = Eval.create (elaborate ?top src)

let int_of_bits bits =
  let v = ref 0 in
  Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) bits;
  !v
