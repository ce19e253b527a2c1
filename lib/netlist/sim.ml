let eval_signal values = function
  | Netlist.Zero -> false
  | Netlist.One -> true
  | Netlist.Net n -> values.(n)

(* Evaluate the combinational cells in topological order; flip-flop outputs
   are pre-seeded from [state].  Returns the net values and the association
   of flip-flop output nets to their freshly computed D values. *)
let eval (t : Netlist.t) ~inputs ~state =
  let values = Array.make t.Netlist.num_nets false in
  List.iter (fun (net, bit) -> values.(net) <- bit) state;
  List.iter
    (fun (name, nets) ->
       match List.assoc_opt name inputs with
       | None -> invalid_arg ("Sim: missing input " ^ name)
       | Some bits ->
         if Array.length bits <> Array.length nets then
           invalid_arg ("Sim: width mismatch on input " ^ name);
         Array.iteri (fun i net -> values.(net) <- bits.(i)) nets)
    t.Netlist.inputs;
  let next_state = ref [] in
  Array.iter
    (fun (c : Netlist.cell) ->
       match c.kind with
       | Netlist.Dff_p | Netlist.Dff_n ->
         next_state := (c.out, eval_signal values c.inputs.(0)) :: !next_state
       | _ ->
         values.(c.out) <- Netlist.kind_logic c.kind (Array.map (eval_signal values) c.inputs))
    t.Netlist.cells;
  (values, !next_state)

let read_outputs (t : Netlist.t) values =
  List.map
    (fun (name, signals) -> (name, Array.map (eval_signal values) signals))
    t.Netlist.outputs

let comb t ~inputs =
  if not (Netlist.is_combinational t) then
    invalid_arg "Sim.comb: netlist contains flip-flops";
  let values, _ = eval t ~inputs ~state:[] in
  read_outputs t values

(* Sequential state: flip-flop output net -> stored bit, all false. *)
let initial (t : Netlist.t) =
  Array.to_list t.Netlist.cells
  |> List.filter_map (fun (c : Netlist.cell) ->
      match c.kind with
      | Netlist.Dff_p | Netlist.Dff_n -> Some (c.out, false)
      | _ -> None)

let step t state ~inputs =
  let values, next_state = eval t ~inputs ~state in
  (read_outputs t values, next_state)

let run t ~inputs =
  let rec go state acc = function
    | [] -> List.rev acc
    | cycle :: rest ->
      let outputs, state = step t state ~inputs:cycle in
      go state (outputs :: acc) rest
  in
  go (initial t) [] inputs

let check_relation t ~assignment =
  let inputs =
    List.filter (fun (name, _) -> Netlist.find_input t name <> None) assignment
  in
  match comb t ~inputs with
  | exception Invalid_argument _ -> false
  | outputs ->
    List.for_all
      (fun (name, bits) ->
         match List.assoc_opt name assignment with
         | None -> true (* unconstrained output *)
         | Some expected -> bits = expected)
      outputs
