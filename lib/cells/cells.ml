open Qac_ising

type t = {
  name : string;
  inputs : string list;
  output : string;
  num_ancillas : int;
  logic : bool array -> bool;
  hamiltonian : Problem.t;
  is_flip_flop : bool;
}

let third = 1.0 /. 3.0
let twelfth = 1.0 /. 12.0

let make name ~inputs ~logic ~ancillas ~h ~j =
  let num_vars = List.length inputs + 1 + ancillas in
  if Array.length h <> num_vars then invalid_arg (name ^ ": h length");
  { name;
    inputs;
    output = "Y";
    num_ancillas = ancillas;
    logic;
    hamiltonian = Problem.create ~num_vars ~h ~j ();
    is_flip_flop = false }

(* Table 5, transcribed with variable order [inputs..., Y, ancillas...]. *)

let not_ =
  make "NOT" ~inputs:[ "A" ] ~ancillas:0
    ~logic:(fun v -> not v.(0))
    ~h:[| 0.0; 0.0 |]
    ~j:[ ((0, 1), 1.0) ]

let and_ =
  make "AND" ~inputs:[ "A"; "B" ] ~ancillas:0
    ~logic:(fun v -> v.(0) && v.(1))
    ~h:[| -0.5; -0.5; 1.0 |]
    ~j:[ ((0, 1), 0.5); ((0, 2), -1.0); ((1, 2), -1.0) ]

let or_ =
  make "OR" ~inputs:[ "A"; "B" ] ~ancillas:0
    ~logic:(fun v -> v.(0) || v.(1))
    ~h:[| 0.5; 0.5; -1.0 |]
    ~j:[ ((0, 1), 0.5); ((0, 2), -1.0); ((1, 2), -1.0) ]

let nand =
  make "NAND" ~inputs:[ "A"; "B" ] ~ancillas:0
    ~logic:(fun v -> not (v.(0) && v.(1)))
    ~h:[| -0.5; -0.5; -1.0 |]
    ~j:[ ((0, 1), 0.5); ((0, 2), 1.0); ((1, 2), 1.0) ]

let nor =
  make "NOR" ~inputs:[ "A"; "B" ] ~ancillas:0
    ~logic:(fun v -> not (v.(0) || v.(1)))
    ~h:[| 0.5; 0.5; 1.0 |]
    ~j:[ ((0, 1), 0.5); ((0, 2), 1.0); ((1, 2), 1.0) ]

let xor =
  make "XOR" ~inputs:[ "A"; "B" ] ~ancillas:1
    ~logic:(fun v -> v.(0) <> v.(1))
    ~h:[| 0.5; -0.5; -0.5; 1.0 |]
    ~j:
      [ ((0, 1), -0.5);
        ((0, 2), -0.5);
        ((0, 3), 1.0);
        ((1, 2), 0.5);
        ((1, 3), -1.0);
        ((2, 3), -1.0) ]

let xnor =
  make "XNOR" ~inputs:[ "A"; "B" ] ~ancillas:1
    ~logic:(fun v -> v.(0) = v.(1))
    ~h:[| 0.5; -0.5; 0.5; 1.0 |]
    ~j:
      [ ((0, 1), -0.5);
        ((0, 2), 0.5);
        ((0, 3), 1.0);
        ((1, 2), -0.5);
        ((1, 3), -1.0);
        ((2, 3), 1.0) ]

(* Variable order A=0, B=1, S=2, Y=3, ancilla=4. *)
let mux =
  make "MUX" ~inputs:[ "A"; "B"; "S" ] ~ancillas:1
    ~logic:(fun v -> if v.(2) then v.(1) else v.(0))
    ~h:[| 0.25; -0.25; 0.5; 0.5; 1.0 |]
    ~j:
      [ ((0, 2), 0.25);
        ((1, 2), -0.25);
        ((2, 3), 0.5);
        ((2, 4), 1.0);
        ((0, 1), 0.5);
        ((0, 3), -0.5);
        ((0, 4), 0.5);
        ((1, 3), -1.0);
        ((1, 4), -0.5);
        ((3, 4), 1.0) ]

(* Variable order A=0, B=1, C=2, Y=3, ancilla=4. *)
let aoi3 =
  make "AOI3" ~inputs:[ "A"; "B"; "C" ] ~ancillas:1
    ~logic:(fun v -> not ((v.(0) && v.(1)) || v.(2)))
    ~h:[| 0.0; -.third; third; 2.0 *. third; -2.0 *. third |]
    ~j:
      [ ((0, 1), third);
        ((0, 2), third);
        ((0, 3), third);
        ((0, 4), third);
        ((1, 3), -.third);
        ((1, 4), 1.0);
        ((2, 3), 1.0);
        ((2, 4), -.third);
        ((3, 4), -1.0) ]

let oai3 =
  make "OAI3" ~inputs:[ "A"; "B"; "C" ] ~ancillas:1
    ~logic:(fun v -> not ((v.(0) || v.(1)) && v.(2)))
    ~h:[| -0.25; 0.0; -0.75; -0.5; -0.5 |]
    ~j:
      [ ((0, 2), 0.75);
        ((0, 3), 0.5);
        ((0, 4), 0.5);
        ((1, 3), 0.25);
        ((1, 4), -0.25);
        ((2, 3), 1.0);
        ((2, 4), 1.0);
        ((3, 4), 0.25) ]

(* Variable order A=0, B=1, C=2, D=3, Y=4, a=5, b=6. *)
let aoi4 =
  make "AOI4" ~inputs:[ "A"; "B"; "C"; "D" ] ~ancillas:2
    ~logic:(fun v -> not ((v.(0) && v.(1)) || (v.(2) && v.(3))))
    ~h:
      [| -1.0 /. 6.0;
         -1.0 /. 6.0;
         -5.0 *. twelfth;
         0.25;
         -5.0 *. twelfth;
         -7.0 *. twelfth;
         1.0 /. 6.0 |]
    ~j:
      [ ((0, 1), 1.0 /. 6.0);
        ((0, 2), third);
        ((0, 3), -.twelfth);
        ((0, 4), 0.5);
        ((0, 5), third);
        ((0, 6), -0.25);
        ((1, 2), third);
        ((1, 3), -.twelfth);
        ((1, 4), 0.5);
        ((1, 5), third);
        ((1, 6), -0.25);
        ((2, 3), -.third);
        ((2, 4), 11.0 *. twelfth);
        ((2, 5), 11.0 *. twelfth);
        ((2, 6), -5.0 *. twelfth);
        ((3, 4), -.third);
        ((3, 5), -7.0 *. twelfth);
        ((3, 6), third);
        ((4, 5), 1.0);
        ((4, 6), -2.0 *. third);
        ((5, 6), -7.0 *. twelfth) ]

let oai4 =
  make "OAI4" ~inputs:[ "A"; "B"; "C"; "D" ] ~ancillas:2
    ~logic:(fun v -> not ((v.(0) || v.(1)) && (v.(2) || v.(3))))
    ~h:[| 2.0 *. third; -.third; -.third; -.third; -.third; -1.0; -1.0 |]
    ~j:
      [ ((0, 1), -.third);
        ((0, 4), third);
        ((0, 5), -.third);
        ((0, 6), -1.0);
        ((1, 6), 2.0 *. third);
        ((2, 3), third);
        ((2, 4), 2.0 *. third);
        ((2, 5), 2.0 *. third);
        ((3, 4), 2.0 *. third);
        ((3, 5), 2.0 *. third);
        ((4, 5), 1.0);
        ((4, 6), -.third);
        ((5, 6), third) ]

let dff edge_name =
  { name = edge_name;
    inputs = [ "D" ];
    output = "Q";
    num_ancillas = 0;
    logic = (fun v -> v.(0));
    hamiltonian =
      Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] ();
    is_flip_flop = true }

let dff_p = dff "DFF_P"
let dff_n = dff "DFF_N"

let all =
  [ not_; and_; or_; nand; nor; xor; xnor; mux; aoi3; oai3; aoi4; oai4; dff_p; dff_n ]

let find name =
  let wanted = String.uppercase_ascii name in
  List.find_opt (fun c -> String.uppercase_ascii c.name = wanted) all

let pin_names c =
  let ancillas =
    List.init c.num_ancillas (fun i -> Printf.sprintf "$%c" (Char.chr (Char.code 'a' + i)))
  in
  c.inputs @ (c.output :: ancillas)

let truth_table c =
  Qac_cellgen.Truthtab.of_function ~num_inputs:(List.length c.inputs) c.logic

let verify c =
  let result = Exact.solve c.hamiltonian in
  let visible_width = List.length c.inputs + 1 in
  let table = truth_table c in
  let visible sigma =
    Qac_cellgen.Truthtab.row_of_spins (Array.sub sigma 0 visible_width)
  in
  let ground_visible =
    List.sort_uniq compare (List.map visible result.Exact.ground_states)
  in
  let expected = List.sort compare table.Qac_cellgen.Truthtab.valid in
  if ground_visible <> expected then
    Error
      (Printf.sprintf "%s: ground states realize %d visible rows, expected %d" c.name
         (List.length ground_visible) (List.length expected))
  else
    match result.Exact.first_excited_energy with
    | None -> Error (c.name ^ ": degenerate spectrum")
    | Some second ->
      let gap = second -. result.Exact.ground_energy in
      if gap <= 1e-9 then Error (c.name ^ ": zero gap") else Ok gap

let ground = Problem.create ~num_vars:1 ~h:[| 1.0 |] ~j:[] ()
let power = Problem.create ~num_vars:1 ~h:[| -1.0 |] ~j:[] ()
let wire = Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] ()
