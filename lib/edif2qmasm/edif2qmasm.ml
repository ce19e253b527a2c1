module N = Qac_netlist.Netlist

let port_symbol ~width name i = Qac_edif.Edif.port_bit_name name width i

let stdcell_filename = "stdcell.qmasm"

(* Parsed once, when the module is initialised: every compile includes
   the same constant library, and no domain can race the parse. *)
let stdcell_statements = Qac_qmasm.Parser.parse_string (Qac_cells.Stdcell.contents ())

let resolve name = if name = stdcell_filename then Some stdcell_statements else None

(* Pin names per cell kind, in Netlist input order, plus the output pin. *)
let cell_pins kind =
  match kind with
  | N.Not -> ([ "A" ], "Y")
  | N.And | N.Or | N.Nand | N.Nor | N.Xor | N.Xnor -> ([ "A"; "B" ], "Y")
  | N.Mux -> ([ "A"; "B"; "S" ], "Y")
  | N.Aoi3 | N.Oai3 -> ([ "A"; "B"; "C" ], "Y")
  | N.Aoi4 | N.Oai4 -> ([ "A"; "B"; "C"; "D" ], "Y")
  | N.Dff_p | N.Dff_n -> ([ "D" ], "Q")

let convert (t : N.t) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "# ";
  add t.N.name;
  add ": generated by edif2qmasm\n!include \"";
  add stdcell_filename;
  add "\"\n\n";
  (* Net symbols: input-port nets take the port name; the rest are $n. *)
  let net_symbol = Array.make t.N.num_nets None in
  List.iter
    (fun (name, nets) ->
       let width = Array.length nets in
       Array.iteri (fun i n -> net_symbol.(n) <- Some (port_symbol ~width name i)) nets)
    t.N.inputs;
  let symbol_of_net n =
    match net_symbol.(n) with
    | Some s -> s
    | None ->
      let s = "$" ^ string_of_int n in
      net_symbol.(n) <- Some s;
      s
  in
  let uses_gnd = ref false and uses_vcc = ref false in
  let symbol_of_signal = function
    | N.Zero ->
      uses_gnd := true;
      "$gnd"
    | N.One ->
      uses_vcc := true;
      "$vcc"
    | N.Net n -> symbol_of_net n
  in
  let chain a pin b =
    add a;
    Buffer.add_char buf '.';
    add pin;
    add " = ";
    add b;
    Buffer.add_char buf '\n'
  in
  (* Cells: instantiate the macro, chain each pin to its net (section
     4.3.1/4.3.2). *)
  Array.iteri
    (fun idx (c : N.cell) ->
       let inst = Qac_edif.Edif.instance_name idx in
       let inputs, output = cell_pins c.N.kind in
       add "!use_macro ";
       add (N.kind_name c.N.kind);
       Buffer.add_char buf ' ';
       add inst;
       Buffer.add_char buf '\n';
       List.iteri (fun k pin -> chain inst pin (symbol_of_signal c.N.inputs.(k))) inputs;
       chain inst output (symbol_of_net c.N.out))
    t.N.cells;
  (* Output ports: chain each port bit to its driving net. *)
  add "\n# module outputs\n";
  List.iter
    (fun (name, signals) ->
       let width = Array.length signals in
       Array.iteri
         (fun i s ->
            add (port_symbol ~width name i);
            add " = ";
            add (symbol_of_signal s);
            Buffer.add_char buf '\n')
         signals)
    t.N.outputs;
  (* Ground and power (section 4.3.4): only the sign matters. *)
  if !uses_gnd || !uses_vcc then add "\n# constants\n";
  if !uses_gnd then add "$gnd 1\n";
  if !uses_vcc then add "$vcc -1\n";
  Buffer.contents buf

let load ?options t = Qac_qmasm.Qmasm.load ?options ~resolve (convert t)

let line_count src = Qac_qmasm.Parser.line_count src
