(** The per-table/per-figure experiment harness (DESIGN.md E1-E15).

    Every experiment prints the paper's reported artifact next to what this
    reproduction measures.  Absolute numbers differ (the substrate is
    simulated annealing on a CPU, not a D-Wave 2000Q); the *shape* — who
    wins, what grows, where the costs are — is the reproduction target. *)

module P = Qac_core.Pipeline
module Cells = Qac_cells.Cells
module Truthtab = Qac_cellgen.Truthtab
module Gen = Qac_cellgen.Gen
module Chimera = Qac_chimera.Chimera
module Cmr = Qac_embed.Cmr
module Embedding = Qac_embed.Embedding
module Sampler = Qac_anneal.Sampler
open Qac_ising

let header id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s: %s\n" (String.uppercase_ascii id) title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

(* --- Sources (verbatim from the paper) ----------------------------------- *)

let fig2_src =
  {|module circuit (s, a, b, c);
  input s;
  input a;
  input b;
  output [1:0] c;
  assign c = s ? a + b : a - b;
endmodule|}

let circsat_src =
  {|module circsat (a, b, c, y);
  input a, b, c;
  output y;
  wire [1:10] x;
  assign x[1] = a;
  assign x[2] = b;
  assign x[3] = c;
  assign x[4] = ~x[3];
  assign x[5] = x[1] | x[2];
  assign x[6] = ~x[4];
  assign x[7] = x[1] & x[2] & x[4];
  assign x[8] = x[5] | x[6];
  assign x[9] = x[6] | x[7];
  assign x[10] = x[8] & x[9] & x[7];
  assign y = x[10];
endmodule|}

let mult_src =
  {|module mult (A, B, C);
  input [3:0] A;
  input [3:0] B;
  output[7:0] C;
  assign C = A * B;
endmodule|}

let australia_src =
  (* Formatted as the paper's 6-line Listing 7 (the assign wraps once). *)
  {|module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD && SA != QLD && SA != NSW
              && SA != VIC && QLD != NSW && NSW != VIC && NSW != ACT;
endmodule|}

let counter_src =
  {|module count (clk, inc, reset, out);
  input clk;
  input inc;
  input reset;
  output [5:0] out;
  reg [5:0] var;
  always @(posedge clk)
    if (reset)
      var <= 0;
    else
      if (inc)
        var <= var + 1;
  assign out = var;
endmodule|}

let listing8_mzn =
  "var 1..4: NSW; var 1..4: QLD; var 1..4: SA; var 1..4: VIC;\n\
   var 1..4: WA; var 1..4: NT; var 1..4: ACT;\n\
   constraint WA != NT; constraint WA != SA; constraint NT != SA;\n\
   constraint NT != QLD; constraint SA != QLD; constraint SA != NSW;\n\
   constraint SA != VIC; constraint QLD != NSW; constraint NSW != VIC;\n\
   constraint NSW != ACT;\n\
   solve satisfy;\n"

let sa ~reads ~sweeps ~seed =
  P.Sa { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = reads; num_sweeps = sweeps; seed }

let mean_std values =
  let n = float_of_int (List.length values) in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var = List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values /. n in
  (mean, sqrt var)

(* --- E1: Figure 2 --------------------------------------------------------- *)

let e1 () =
  header "e1" "Figure 2 — end-to-end transformation of a simple function";
  let t = P.compile fig2_src in
  let props = P.static_properties t in
  row "stage sizes: %d Verilog lines -> %d EDIF lines -> %d QMASM lines -> %d Ising variables\n"
    props.P.verilog_lines props.P.edif_lines props.P.qmasm_lines props.P.logical_vars;
  row "paper: H(sigma) over physical qubits; minimized exactly at valid (s,a,b,c) relations\n";
  let result = P.run t ~solver:P.Exact_solver ~target:P.Logical in
  row "measured: %d ground states, one per input combination (expected 8)\n"
    (List.length result.P.solutions);
  List.iter
    (fun (s_v, a_v, b_v, c_v, ok) ->
       row "  {s=%d, a=%d, b=%d, c=%d%d}  valid relation: %b\n" s_v a_v b_v
         ((c_v lsr 1) land 1) (c_v land 1) ok)
    (List.map
       (fun sol ->
          ( List.assoc "s" sol.P.ports,
            List.assoc "a" sol.P.ports,
            List.assoc "b" sol.P.ports,
            List.assoc "c" sol.P.ports,
            sol.P.valid ))
       result.P.solutions);
  row "paper's examples: {s=0,a=1,b=0,c=01} and {s=1,a=1,b=1,c=10} valid; {s=1,a=0,b=0,c=11} not\n";
  let check sv av bv cv =
    List.exists
      (fun sol ->
         List.assoc "s" sol.P.ports = sv
         && List.assoc "a" sol.P.ports = av
         && List.assoc "b" sol.P.ports = bv
         && List.assoc "c" sol.P.ports = cv)
      result.P.solutions
  in
  row "measured: {0,1,0,01} in ground set: %b; {1,1,1,10} in ground set: %b; {1,0,0,11}: %b\n"
    (check 0 1 0 1) (check 1 1 1 2) (check 1 0 0 3)

(* --- E2: Figure 3 --------------------------------------------------------- *)

let e2 () =
  header "e2" "Figure 3 — digital circuit and EDIF netlist for Figure 2(a)";
  let t = P.compile fig2_src in
  row "paper: Yosys+ABC compile Figure 2(a) into a gate-level circuit; 112-line EDIF excerpted\n";
  row "measured netlist: %d cells over the Table 5 set, %d flip-flops\n"
    (Qac_netlist.Netlist.num_cells t.P.netlist)
    (Qac_netlist.Netlist.num_flip_flops t.P.netlist);
  List.iter
    (fun (kind, n) -> row "  %-5s x %d\n" (Qac_netlist.Netlist.kind_name kind) n)
    (Qac_netlist.Netlist.cells_by_kind t.P.netlist);
  let edif = Qac_edif.Edif.to_string t.P.netlist in
  row "measured EDIF: %d lines (paper: 112); first lines:\n" (Qac_edif.Edif.line_count edif);
  String.split_on_char '\n' edif
  |> List.filteri (fun i _ -> i < 6)
  |> List.iter (fun line -> row "  | %s\n" line);
  (* Round-trip sanity. *)
  let reparsed = Qac_edif.Edif.of_string edif in
  row "EDIF parses back to a netlist with %d cells (round-trip ok: %b)\n"
    (Qac_netlist.Netlist.num_cells reparsed)
    (Qac_netlist.Netlist.num_cells reparsed = Qac_netlist.Netlist.num_cells t.P.netlist)

(* --- E3: Table 1 ----------------------------------------------------------- *)

let e3 () =
  header "e3" "Table 1 — a two-ended net as a quadratic pseudo-Boolean function";
  row "%6s %6s %12s %6s\n" "sig_A" "sig_Y" "-sig_A*sig_Y" "min?";
  let r = Exact.solve Cells.wire in
  List.iter
    (fun (a, y) ->
       let e = Problem.energy Cells.wire [| a; y |] in
       let is_min = Float.abs (e -. r.Exact.ground_energy) < 1e-9 in
       row "%6d %6d %12g %6s\n" a y e (if is_min then "yes" else ""))
    [ (-1, -1); (-1, 1); (1, -1); (1, 1) ];
  row "paper: minimized exactly where sig_A = sig_Y — reproduced: %b\n"
    (List.for_all
       (fun s -> s.(0) = s.(1))
       r.Exact.ground_states)

(* --- E4: Table 2 ----------------------------------------------------------- *)

let e4 () =
  header "e4" "Table 2 — system of inequalities for an AND gate";
  let table = Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) && v.(1)) in
  (match Gen.derive_exact table with
   | None -> row "derivation FAILED (unexpected)\n"
   | Some d ->
     row "derived gap-maximal AND cell: k = %g, gap = %g (LP over h, J with hardware box)\n"
       d.Gen.ground_energy d.Gen.gap;
     row "%6s %6s %6s %10s %10s\n" "sig_Y" "sig_A" "sig_B" "H(row)" "constraint";
     (* Table 2 lists rows in (Y, A, B) order; our variables are (A, B, Y). *)
     List.iter
       (fun (y, a, b) ->
          let spins = [| a; b; y |] in
          let e = Problem.energy d.Gen.problem spins in
          let valid = Truthtab.is_valid table (Truthtab.row_of_spins spins) in
          row "%6d %6d %6d %10g %10s\n" y a b e (if valid then "= k" else "> k"))
       [ (-1, -1, -1); (-1, -1, 1); (-1, 1, -1); (-1, 1, 1);
         (1, -1, -1); (1, -1, 1); (1, 1, -1); (1, 1, 1) ];
     (* The paper's example solution (2 sigY - sigA - sigB - 2 sigY sigA -
        2 sigY sigB + sigA sigB) is exactly 2x the Table 5 AND cell. *)
     let paper = Problem.scale Cells.and_.Cells.hamiltonian 2.0 in
     let r = Exact.solve paper in
     row "paper's example column: k = -3 with values {-3,-3,-3,1,9,1,1,-3} — our k: %g\n"
       r.Exact.ground_energy)

(* --- E5: Tables 3-4 --------------------------------------------------------- *)

let e5 () =
  header "e5" "Tables 3-4 — XOR requires an ancilla";
  let xor_table = Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) <> v.(1)) in
  (match Gen.derive_exact xor_table with
   | None -> row "ancilla-free XOR: no solution (paper: system of inequalities unsolvable) [ok]\n"
   | Some _ -> row "ancilla-free XOR unexpectedly solvable [MISMATCH]\n");
  (* Table 3's augmentation: rows (Y,A,B,a) = FFFF, TFTT, TTFF, FTTF;
     our column order is A,B,Y,a. *)
  let augmented =
    Truthtab.create ~num_vars:4
      [ [| false; false; false; false |];
        [| false; true; true; true |];
        [| true; false; true; false |];
        [| true; true; false; false |] ]
  in
  (match Gen.derive_exact augmented with
   | None -> row "Table 3 augmentation FAILED (unexpected)\n"
   | Some d ->
     row "Table 3's ancilla column makes the system solvable: k = %g, gap = %g\n"
       d.Gen.ground_energy d.Gen.gap;
     row "verified exhaustively: %b\n" (Gen.verify d));
  (* Reproduce Table 4's 16-row energy table with the section 4.3.2
     solution: H = -sY + sA - sB + 2sa - sYsA + sYsB - 2sYsa - sAsB + 2sAsa - 2sBsa. *)
  let paper_432 =
    Problem.create ~num_vars:4
      ~h:[| 1.0; -1.0; -1.0; 2.0 |]
      ~j:
        [ ((0, 2), -1.0); ((1, 2), 1.0); ((2, 3), -2.0); ((0, 1), -1.0); ((0, 3), 2.0);
          ((1, 3), -2.0) ]
      ()
  in
  row "\nTable 4 (paper's section 4.3.2 solution, k = -4):\n";
  row "%5s %5s %5s %5s %8s %10s | paper\n" "Y" "A" "B" "a" "H" "constraint";
  let paper_rows =
    (* The 16 Example-column values of Table 4, in (Y,A,B,a) binary order. *)
    [ -4; 4; -2; -2; -2; 14; -4; 4; -2; -2; 4; -4; -4; 4; -2; -2 ]
  in
  List.iteri
    (fun idx paper_value ->
       let bit k = if (idx lsr (3 - k)) land 1 = 1 then 1 else -1 in
       let y = bit 0 and a = bit 1 and b = bit 2 and anc = bit 3 in
       let e = Problem.energy paper_432 [| a; b; y; anc |] in
       row "%5d %5d %5d %5d %8g %10s | %d %s\n" y a b anc e
         (if e <= -3.999 then "= k" else "> k")
         paper_value
         (if Float.abs (e -. float_of_int paper_value) < 1e-9 then "" else "[MISMATCH]"))
    paper_rows

(* --- E6: Table 5 ------------------------------------------------------------ *)

let e6 () =
  header "e6" "Table 5 — the standard-cell library, verified exhaustively";
  row "%-7s %-10s %-8s %-6s %s\n" "cell" "inputs" "ancillas" "gap" "ground states = truth table?";
  List.iter
    (fun (c : Cells.t) ->
       match Cells.verify c with
       | Ok gap ->
         row "%-7s %-10d %-8d %-6g yes\n" c.Cells.name (List.length c.Cells.inputs)
           c.Cells.num_ancillas gap
       | Error msg -> row "%-7s FAILED: %s\n" c.Cells.name msg)
    Cells.all;
  row "stdcell.qmasm: %d statement lines (paper: 232)\n" (Qac_cells.Stdcell.line_count ())

(* --- E7: Listings 1, 2 and 4 ------------------------------------------------ *)

let e7 () =
  header "e7" "Listings 1, 2, 4 — QMASM programs assemble and solve";
  (* Listing 1. *)
  let listing1 = "A -1\nD 2\nA B -5\nB C -5\nC D -5\nD A -5\nA C 10\nB D 10\n" in
  let a = Qac_qmasm.Qmasm.load listing1 in
  let r = Exact.solve a.Qac_qmasm.Assemble.problem in
  row "Listing 1 (4-variable ring): ground energy %g, %d ground state(s):\n" r.Exact.ground_energy
    (List.length r.Exact.ground_states);
  List.iter
    (fun spins ->
       let assignment = Qac_qmasm.Assemble.assignment_of_spins a spins in
       row "  %s\n"
         (String.concat " "
            (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n (if v then "T" else "F")) assignment)))
    r.Exact.ground_states;
  (* Listing 2's OR macro from the generated standard-cell library. *)
  let src = "!include \"stdcell.qmasm\"\n!use_macro OR my_or\n" in
  let a = Qac_qmasm.Qmasm.load ~resolve:Qac_edif2qmasm.Edif2qmasm.resolve src in
  let r = Exact.solve a.Qac_qmasm.Assemble.problem in
  let or_ok =
    List.for_all
      (fun spins ->
         let v = Qac_qmasm.Assemble.assignment_of_spins a spins in
         List.assoc "my_or.Y" v = (List.assoc "my_or.A" v || List.assoc "my_or.B" v))
      r.Exact.ground_states
  in
  row "Listing 2 (OR macro): %d ground states, all satisfy Y = A|B: %b\n"
    (List.length r.Exact.ground_states) or_ok;
  (* Listing 4's AND3 composition. *)
  let and3 =
    "!include \"stdcell.qmasm\"\n\
     !begin_macro AND3\n!use_macro AND $and1\n!use_macro AND $and2\n\
     A = $and1.A\nB = $and1.B\nC = $and2.B\nY = $and2.Y\n$and1.Y = $and2.A\n\
     !end_macro AND3\n!use_macro AND3 my_and\n"
  in
  let a = Qac_qmasm.Qmasm.load ~resolve:Qac_edif2qmasm.Edif2qmasm.resolve and3 in
  let r = Exact.solve a.Qac_qmasm.Assemble.problem in
  let and3_ok =
    List.for_all
      (fun spins ->
         let v = Qac_qmasm.Assemble.assignment_of_spins a spins in
         List.assoc "my_and.Y" v
         = (List.assoc "my_and.A" v && List.assoc "my_and.B" v && List.assoc "my_and.C" v))
      r.Exact.ground_states
  in
  row "Listing 4 (AND3 = two ANDs + a wire): all ground states satisfy Y = A&B&C: %b\n" and3_ok

(* --- E8: section 4.3.6 ------------------------------------------------------- *)

let e8 () =
  header "e8" "Section 4.3.6 — passing arguments by pinning";
  let and3 =
    "!include \"stdcell.qmasm\"\n\
     !begin_macro AND3\n!use_macro AND $and1\n!use_macro AND $and2\n\
     A = $and1.A\nB = $and1.B\nC = $and2.B\nY = $and2.Y\n$and1.Y = $and2.A\n\
     !end_macro AND3\n!use_macro AND3 g\n"
  in
  let solve_with pins =
    let a = Qac_qmasm.Qmasm.load ~resolve:Qac_edif2qmasm.Edif2qmasm.resolve (and3 ^ pins) in
    let r = Exact.solve a.Qac_qmasm.Assemble.problem in
    List.map (Qac_qmasm.Assemble.assignment_of_spins a) r.Exact.ground_states
  in
  (* Forward: AND3(T, F, T). *)
  let fwd = solve_with "g.A := true\ng.B := false\ng.C := true\n" in
  row "forward AND3(T,F,T): Y in every ground state = %s (paper: False)\n"
    (String.concat ","
       (List.sort_uniq compare
          (List.map (fun v -> if List.assoc "g.Y" v then "T" else "F") fwd)));
  (* Backward: pin Y = True. *)
  let bwd = solve_with "g.Y := true\n" in
  row "backward Y := True: inputs in the unique ground state = %s (paper: A=B=C=True)\n"
    (String.concat " "
       (List.map
          (fun v ->
             Printf.sprintf "A=%s B=%s C=%s"
               (if List.assoc "g.A" v then "T" else "F")
               (if List.assoc "g.B" v then "T" else "F")
               (if List.assoc "g.C" v then "T" else "F"))
          bwd))

(* --- E9: section 4.4 ---------------------------------------------------------- *)

let e9 () =
  header "e9" "Section 4.4 — minor embedding a triangle into the Chimera graph";
  let triangle =
    Problem.create ~num_vars:3 ~h:[| 0.5; 0.5; 0.5 |]
      ~j:[ ((0, 1), 1.0); ((1, 2), 1.0); ((0, 2), 1.0) ]
      ()
  in
  row "paper: H_log over {A,B,C} maps to qubits {0}, {2,4}, {5}: B becomes a 2-qubit chain\n";
  let graph = Chimera.create 2 in
  let hand = { Embedding.chains = [| [| 0 |]; [| 2; 4 |]; [| 5 |] |] } in
  (match Embedding.verify graph triangle hand with
   | Ok () -> row "hand embedding verifies on our Chimera model: yes\n"
   | Error msg -> row "hand embedding FAILED: %s\n" msg);
  let phys = Embedding.apply graph triangle hand ~chain_strength:1.0 in
  row "H_phys coefficients (paper's figures, chain strength 1):\n";
  row "  h: q0=%g q2=%g q4=%g q5=%g (paper: 1/4, 1/8, 1/8, 1/4)\n" phys.Problem.h.(0)
    phys.Problem.h.(2) phys.Problem.h.(4) phys.Problem.h.(5);
  row "  J: (0,4)=%g (0,5)=%g (2,4)=%g (2,5)=%g (paper: 1/2, 1/2, -1, 1/2)\n"
    (Problem.get_j phys 0 4) (Problem.get_j phys 0 5) (Problem.get_j phys 2 4)
    (Problem.get_j phys 2 5);
  (* Note: the paper scales H_phys by 1/2 overall (hardware range); ours is
     unscaled, so expect exactly 2x its printed coefficients. *)
  let compacted, _ = Embedding.compact phys in
  let logical_g = Exact.solve triangle in
  let physical_g = Exact.solve compacted in
  row "logical ground energy %g; physical (per chain intact) %g + chain offset\n"
    logical_g.Exact.ground_energy physical_g.Exact.ground_energy;
  (* And the heuristic embedder finds its own. *)
  match Cmr.find graph triangle with
  | Some e ->
    row "CMR heuristic embedding: %d qubits, max chain %d, verifies: %b\n"
      (Embedding.num_physical_qubits e) (Embedding.max_chain_length e)
      (Embedding.verify graph triangle e = Ok ())
  | None -> row "CMR heuristic FAILED\n"

(* --- E10: Listing 3 ------------------------------------------------------------ *)

let e10 () =
  header "e10" "Listing 3 — sequential logic costs qubits linearly per time step";
  row "%6s %18s %18s\n" "steps" "logical variables" "(paper: 'heavy toll in qubit count')";
  List.iter
    (fun steps ->
       let t = P.compile counter_src ~steps in
       let props = P.static_properties t in
       row "%6d %18d\n" steps props.P.logical_vars)
    [ 1; 2; 4; 8 ];
  (* Forward-simulate the unrolled circuit against the interpreter. *)
  let t = P.compile counter_src ~steps:4 in
  let pins =
    List.init 6 (fun b -> (Printf.sprintf "var[%d]@init" b, 0))
    @ List.concat_map
        (fun step ->
           [ (Printf.sprintf "clk@%d" step, 0);
             (Printf.sprintf "inc@%d" step, 1);
             (Printf.sprintf "reset@%d" step, 0) ])
        [ 0; 1; 2; 3 ]
  in
  let result =
    P.run t ~pins ~solver:(sa ~reads:300 ~sweeps:1500 ~seed:11) ~target:P.Logical
  in
  match P.valid_solutions result with
  | s :: _ ->
    row "unrolled 4 steps, inc every cycle: out = %s (expected 0 1 2 3)\n"
      (String.concat " "
         (List.map
            (fun step -> string_of_int (List.assoc (Printf.sprintf "out@%d" step) s.P.ports))
            [ 0; 1; 2; 3 ]))
  | [] -> row "no valid sample (increase reads)\n"

(* --- E11: Listing 5 ------------------------------------------------------------- *)

let e11 () =
  header "e11" "Listing 5 / Figure 4 — circuit satisfiability run backward";
  let t = P.compile circsat_src in
  let props = P.static_properties t in
  row "compiled: %d Verilog lines, %d logical variables\n" props.P.verilog_lines
    props.P.logical_vars;
  let result = P.run t ~pins:[ ("y", 1) ] ~solver:P.Exact_solver ~target:P.Logical in
  (match P.valid_solutions result with
   | [ s ] ->
     row "pinned y=1 -> a=%d b=%d c=%d (paper: a and b True, c False)\n"
       (List.assoc "a" s.P.ports) (List.assoc "b" s.P.ports) (List.assoc "c" s.P.ports)
   | other -> row "unexpected solution count %d\n" (List.length other));
  (* Also stochastic, like the hardware. *)
  let result = P.run t ~pins:[ ("y", 1) ] ~solver:(sa ~reads:100 ~sweeps:500 ~seed:1) ~target:P.Logical in
  let valid = P.valid_solutions result in
  row "with simulated annealing (100 reads): found the satisfying assignment: %b\n" (valid <> [])

(* --- E12: Listing 6 -------------------------------------------------------------- *)

let e12 () =
  header "e12" "Listing 6 — factoring 143 by running a multiplier backward";
  let t = P.compile mult_src in
  let props = P.static_properties t in
  row "compiled multiplier: %d logical variables\n" props.P.logical_vars;
  let result =
    P.run t ~pin_source:"C[7:0] := 10001111" ~solver:(sa ~reads:500 ~sweeps:2000 ~seed:5)
      ~target:P.Logical
  in
  let tally = Hashtbl.create 4 in
  List.iter
    (fun s ->
       if s.P.valid && s.P.pins_respected then begin
         let key = (List.assoc "A" s.P.ports, List.assoc "B" s.P.ports) in
         let prev = try Hashtbl.find tally key with Not_found -> 0 in
         Hashtbl.replace tally key (prev + s.P.num_occurrences)
       end)
    result.P.solutions;
  let factors =
    Hashtbl.fold (fun (a, b) n acc -> (a, b, n) :: acc) tally [] |> List.sort compare
  in
  row "pin C[7:0] := 10001111 (143): valid factorizations sampled:\n";
  List.iter (fun (a, b, n) -> row "  {A=%d, B=%d} in %d of 500 reads\n" a b n) factors;
  row "paper: returns two unique solutions {A=11,B=13} and {A=13,B=11} — reproduced: %b\n"
    (List.map (fun (a, b, _) -> (a, b)) factors = [ (11, 13); (13, 11) ]);
  (* Multiply and divide with the same program. *)
  let result =
    P.run t ~pin_source:"A[3:0] := 1101\nB[3:0] := 1011"
      ~solver:(sa ~reads:200 ~sweeps:1500 ~seed:7) ~target:P.Logical
  in
  (match P.valid_solutions result with
   | s :: _ -> row "multiply 13 x 11 -> C = %d\n" (List.assoc "C" s.P.ports)
   | [] -> row "multiply: no valid sample\n");
  let result =
    P.run t ~pin_source:"C[7:0] := 10001111\nA[3:0] := 1101"
      ~solver:(sa ~reads:200 ~sweeps:1500 ~seed:9) ~target:P.Logical
  in
  match P.valid_solutions result with
  | s :: _ -> row "divide 143 / 13 -> B = %d\n" (List.assoc "B" s.P.ports)
  | [] -> row "divide: no valid sample\n"

(* --- E13: Listing 7 ---------------------------------------------------------------- *)

let adjacency =
  [ ("WA", "NT"); ("WA", "SA"); ("NT", "SA"); ("NT", "QLD"); ("SA", "QLD");
    ("SA", "NSW"); ("SA", "VIC"); ("QLD", "NSW"); ("NSW", "VIC"); ("NSW", "ACT") ]

let e13 () =
  header "e13" "Listing 7 / Figure 5 — four-coloring Australia backward";
  let t = P.compile australia_src in
  let result =
    P.run t ~pins:[ ("valid", 1) ] ~solver:(sa ~reads:400 ~sweeps:800 ~seed:3)
      ~target:P.Logical
  in
  let valid = P.valid_solutions result in
  row "samples that are proper colorings: %d distinct (of %d distinct samples)\n"
    (List.length valid) (List.length result.P.solutions);
  (match valid with
   | s :: _ ->
     row "example: ";
     List.iter
       (fun r -> row "%s=%d " r (List.assoc r s.P.ports))
       [ "ACT"; "NSW"; "NT"; "QLD"; "SA"; "VIC"; "WA" ];
     row "\n";
     let proper =
       List.for_all (fun (a, b) -> List.assoc a s.P.ports <> List.assoc b s.P.ports) adjacency
     in
     row "adjacency check (all 10 borders differ): %b\n" proper
   | [] -> row "no valid coloring sampled\n");
  row "paper: 'it returns a valid coloring, such as {ACT=2,NSW=0,NT=1,QLD=3,SA=2,VIC=3,WA=3}'\n";
  row "(the annealer samples from the 576 proper colorings; any proper coloring is correct)\n"

(* --- E14: section 6.1 ----------------------------------------------------------------- *)

let e14 ?(embeddings = 8) () =
  header "e14" "Section 6.1 — static properties of the map-coloring compilation";
  let t = P.compile australia_src in
  let props = P.static_properties t in
  row "%-34s %16s %16s\n" "metric" "paper" "measured";
  row "%-34s %16s %16d\n" "Verilog lines" "6" props.P.verilog_lines;
  row "%-34s %16s %16d\n" "EDIF lines" "123" props.P.edif_lines;
  row "%-34s %16s %16d\n" "QMASM lines (excl. stdcell)" "736" props.P.qmasm_lines;
  row "%-34s %16s %16d\n" "stdcell.qmasm lines" "232" props.P.stdcell_lines;
  row "%-34s %16s %16d\n" "logical variables" "74" props.P.logical_vars;
  row "%-34s %16s %16d\n" "logical terms" "312" props.P.logical_terms;
  (* Physical qubits over repeated randomized embeddings. *)
  let problem = t.P.program.Qac_qmasm.Assemble.problem in
  let graph = Chimera.dwave_2000q in
  let qubits = ref [] and terms = ref [] and failures = ref 0 in
  for seed = 1 to embeddings do
    match Cmr.find ~params:{ Cmr.default_params with Cmr.seed; tries = 4 } graph problem with
    | Some e ->
      qubits := float_of_int (Embedding.num_physical_qubits e) :: !qubits;
      let phys = Embedding.apply graph problem e in
      terms := float_of_int (Problem.num_terms phys) :: !terms
    | None -> incr failures
  done;
  (match !qubits with
   | [] -> row "%-34s %16s %16s\n" "physical qubits" "369 +/- 26" "no embeddings"
   | qs ->
     let qm, qs_ = mean_std qs in
     let tm, ts_ = mean_std !terms in
     row "%-34s %16s %10.0f +/- %.0f\n" "physical qubits (C16, randomized)" "369 +/- 26" qm qs_;
     row "%-34s %16s %10.0f +/- %.0f\n" "physical terms" "963 +/- 53" tm ts_;
     if !failures > 0 then row "(%d of %d embedding attempts failed)\n" !failures embeddings);
  row "\nhand-coded unary encoding (Dahl/Lucas style): 28 logical vars, 88 qubits (paper)\n";
  row "compiled/hand-coded logical ratio: paper 74/28 = 2.6x; measured %d/28 = %.1fx\n"
    props.P.logical_vars
    (float_of_int props.P.logical_vars /. 28.0);
  match !qubits with
  | [] -> ()
  | qs ->
    let qm, _ = mean_std qs in
    row "compiled/hand-coded physical ratio: paper 369/88 = 4.2x; measured %.0f/88 = %.1fx\n" qm
      (qm /. 88.0)

(* --- E15: section 6.2 ------------------------------------------------------------------ *)

let e15 () =
  header "e15" "Section 6.2 — execution time vs a classical CSP solver";
  (* Annealer side: SA samples of the compiled map-coloring problem; time
     per *valid* solution, amortized over a batch (the paper amortizes
     1,000,000 anneals of 20us against queueing/HTTPS overheads). *)
  let t = P.compile australia_src in
  let reads = 2000 in
  let solver = sa ~reads ~sweeps:300 ~seed:2 in
  let result = P.run t ~pins:[ ("valid", 1) ] ~solver ~target:P.Logical in
  let valid_reads =
    List.fold_left
      (fun acc s -> if s.P.valid && s.P.pins_respected then acc + s.P.num_occurrences else acc)
      0 result.P.solutions
  in
  let annealer_per_solution =
    if valid_reads = 0 then infinity else result.P.elapsed_seconds /. float_of_int valid_reads
  in
  row "annealer (SA, %d reads, %d sweeps): %.3fs total, %d valid-coloring reads\n" reads 300
    result.P.elapsed_seconds valid_reads;
  row "  => %.0f us per solution (paper, D-Wave 2000Q: 734 us per solution)\n"
    (annealer_per_solution *. 1e6);
  (* Classical side: repeated randomized CSP solves of Listing 8. *)
  let runs = 2000 in
  let t0 = Unix.gettimeofday () in
  let solved = ref 0 in
  for seed = 1 to runs do
    let csp = Qac_csp.Mzn.parse listing8_mzn in
    match Qac_csp.Csp.solve ~seed csp with
    | Some _ -> incr solved
    | None -> ()
  done;
  let csp_elapsed = Unix.gettimeofday () -. t0 in
  let csp_per_solution = csp_elapsed /. float_of_int !solved in
  row "CSP baseline (Listing 8, %d randomized solves): %.3fs total\n" runs csp_elapsed;
  row "  => %.0f us per solution (paper, Chuffed: 1798 us per solution)\n"
    (csp_per_solution *. 1e6);
  row "\nratio annealer/CSP: paper 734/1798 = 0.41x; measured %.1fx\n"
    (annealer_per_solution /. csp_per_solution);
  row "NOTE: the paper's 0.41x depends on hardware 20us anneals; a software SA\n";
  row "substrate cannot reproduce that constant factor on a 7-region toy CSP.\n";
  row "(the paper's point — the annealing path 'is not necessarily worse' than a\n";
  row " classical solver, and it samples the solution space while the CSP returns\n";
  row " the same coloring every time unless randomized — holds on our substrate: %d\n"
    (List.length (P.valid_solutions result));
  row " distinct colorings were sampled in one batch)\n"

(* --- Extension experiments (ablations beyond the paper's evaluation) ------ *)

let ext1 () =
  header "ext1" "Ablation — tech mapping (ABC-style) on vs off";
  row "%-12s %22s %22s
" "workload" "logical vars (mapped)" "logical vars (unmapped)";
  List.iter
    (fun (name, src) ->
       let mapped = P.compile src in
       let unmapped = P.compile ~optimize:false src in
       row "%-12s %22d %22d
" name
         (P.static_properties mapped).P.logical_vars
         (P.static_properties unmapped).P.logical_vars)
    [ ("fig2", fig2_src); ("circsat", circsat_src); ("mult4x4", mult_src);
      ("australia", australia_src) ];
  row "(tech mapping folds NOT+AND/OR cones into NAND/NOR/XNOR/AOI/OAI cells;
";
  row " the paper notes richer cells 'can reduce the required qubit count')
"

let ext2 () =
  header "ext2" "Ablation — chain merging vs explicit chain couplers";
  row "%-12s %18s %18s
" "workload" "merged vars" "unmerged vars";
  List.iter
    (fun (name, src) ->
       let merged = P.compile src in
       let unmerged =
         P.compile ~options:{ P.default_options with Qac_qmasm.Assemble.merge_chains = false } src
       in
       row "%-12s %18d %18d
" name
         (P.static_properties merged).P.logical_vars
         (P.static_properties unmerged).P.logical_vars)
    [ ("fig2", fig2_src); ("circsat", circsat_src); ("australia", australia_src) ];
  row "(qmasm merges 'explicit A = B constraints ... into a single variable', section 4.4)
"

let ext3 () =
  header "ext3" "Extension — analog coefficient precision (section 2's noise discussion)";
  let t = P.compile circsat_src in
  row "circsat with y pinned, coefficients quantized to 2^bits levels:
";
  row "%6s %24s
" "bits" "backward answer correct?";
  List.iter
    (fun bits ->
       (* Pin y = true, quantize, solve exactly, check the answer. *)
       let statements = t.P.statements @ [ Qac_qmasm.Ast.Pin [ ("y", true) ] ] in
       let program = Qac_qmasm.Assemble.assemble ~options:P.default_options statements in
       let quantized = Scale.quantize ~bits program.Qac_qmasm.Assemble.problem in
       let r = Exact.solve quantized in
       let ok =
         List.for_all
           (fun spins ->
              let v = Qac_qmasm.Assemble.assignment_of_spins program spins in
              List.assoc "a" v && List.assoc "b" v && not (List.assoc "c" v))
           r.Exact.ground_states
         && r.Exact.ground_states <> []
       in
       row "%6d %24b
" bits ok)
    [ 2; 3; 4; 5; 6; 8 ];
  row "(few-bit coefficients break the gadget structure; ~4-5 bits suffice here,
";
  row " matching the paper's concern about limited analog precision)
"

let ext4 () =
  header "ext4" "Extension — embedding onto a chip with broken qubits";
  let triangle_plus =
    Problem.create ~num_vars:5 ~h:(Array.make 5 0.1)
      ~j:[ ((0, 1), 1.0); ((1, 2), 1.0); ((0, 2), 1.0); ((2, 3), -1.0); ((3, 4), 1.0);
           ((0, 4), 0.5) ]
      ()
  in
  row "%10s %10s %14s
" "dropout" "success" "mean qubits";
  List.iter
    (fun dropout_percent ->
       let successes = ref 0 and qubits = ref [] in
       for seed = 1 to 10 do
         let st = Random.State.make [| (seed * 100) + dropout_percent |] in
         let broken =
           List.filter (fun _ -> Random.State.int st 100 < dropout_percent)
             (List.init 32 (fun q -> q))
         in
         let graph = Chimera.create 2 ~broken in
         match
           Cmr.find ~params:{ Cmr.default_params with Cmr.seed } graph triangle_plus
         with
         | Some e ->
           incr successes;
           qubits := float_of_int (Embedding.num_physical_qubits e) :: !qubits
         | None -> ()
       done;
       let mean = if !qubits = [] then 0.0 else fst (mean_std !qubits) in
       row "%9d%% %7d/10 %14.1f
" dropout_percent !successes mean)
    [ 0; 5; 10; 20; 30 ];
  row "(the paper notes 'there is inevitably some drop-out'; embedding degrades gracefully)
"

let ext5 () =
  header "ext5" "Extension — solver comparison on the compiled map-coloring problem";
  let t = P.compile australia_src in
  row "%-28s %10s %12s %16s
" "solver" "time (s)" "valid reads" "distinct colorings";
  let evaluate name solver =
    let result = P.run t ~pins:[ ("valid", 1) ] ~solver ~target:P.Logical in
    let valid = P.valid_solutions result in
    let valid_reads =
      List.fold_left (fun acc s -> acc + s.P.num_occurrences) 0 valid
    in
    row "%-28s %10.2f %12d %16d
" name result.P.elapsed_seconds valid_reads
      (List.length valid)
  in
  evaluate "SA (400 reads x 800 sweeps)" (sa ~reads:400 ~sweeps:800 ~seed:3);
  evaluate "tabu (40 restarts)"
    (P.Tabu { Qac_anneal.Tabu.default_params with
              Qac_anneal.Tabu.num_restarts = 40; max_iterations = 400; seed = 1 });
  evaluate "qbsolv (decomposing)"
    (P.Qbsolv { Qac_anneal.Qbsolv.default_params with Qac_anneal.Qbsolv.seed = 1 });
  row "(SA samples many distinct colorings per batch; qbsolv returns one polished
";
  row " solution; tabu sits between — matching their roles in the D-Wave stack)
"

let ext6 () =
  header "ext6" "Extension — simulated quantum annealing (Trotterized) vs SA";
  row "(section 2: the compiled Hamiltonians also target Hitachi's simulated\n";
  row " quantum annealer; we compare ground-state hit rates at a similar sweep\n";
  row " budget on compiled circsat and random spin glasses)\n\n";
  let t = P.compile circsat_src in
  let statements = t.P.statements @ [ Qac_qmasm.Ast.Pin [ ("y", true) ] ] in
  let program = Qac_qmasm.Assemble.assemble ~options:P.default_options statements in
  let pinned = program.Qac_qmasm.Assemble.problem in
  let ground p = (Exact.solve ~limit:0 p).Exact.ground_energy in
  let hit_rate response target =
    let hits =
      List.fold_left
        (fun acc s ->
           if Float.abs (s.Sampler.energy -. target) < 1e-6 then
             acc + s.Sampler.num_occurrences
           else acc)
        0 response.Sampler.samples
    in
    (hits, response.Sampler.num_reads)
  in
  row "%-28s %16s %16s\n" "problem" "SA hits" "SQA hits";
  let compare_problem name p =
    let target = ground p in
    let sa_r =
      Qac_anneal.Sa.sample
        ~params:{ Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 50; num_sweeps = 150 }
        p
    in
    let sqa_r =
      Qac_anneal.Sqa.sample
        ~params:{ Qac_anneal.Sqa.default_params with
                  Qac_anneal.Sqa.num_reads = 50; num_sweeps = 150; num_slices = 10 }
        p
    in
    let sa_h, sa_n = hit_rate sa_r target in
    let sqa_h, sqa_n = hit_rate sqa_r target in
    row "%-28s %11d/%-4d %11d/%-4d\n" name sa_h sa_n sqa_h sqa_n
  in
  compare_problem "circsat (y pinned)" pinned;
  List.iter
    (fun seed ->
       let st = Random.State.make [| seed |] in
       let n = 16 in
       let h = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
       let j = ref [] in
       for i = 0 to n - 1 do
         for k = i + 1 to n - 1 do
           if Random.State.float st 1.0 < 0.4 then
             j := ((i, k), Random.State.float st 2.0 -. 1.0) :: !j
         done
       done;
       compare_problem
         (Printf.sprintf "random glass (16 vars, #%d)" seed)
         (Problem.create ~num_vars:n ~h ~j:!j ()))
    [ 1; 2; 3 ];
  row "(SQA does ~num_slices times the work per sweep, buying a reliably higher\n";
  row " per-read hit rate; both sample stochastically like the hardware)\n"

let ext7 () =
  header "ext7" "Extension — future topologies: Chimera vs wider shores vs Pegasus";
  row "(the paper's conclusion: future annealers bring 'increased qubit counts,\n";
  row " greater connectivity'; richer topologies need fewer/shorter chains)\n\n";
  let k4 =
    Problem.create ~num_vars:4 ~h:(Array.make 4 0.1)
      ~j:[ ((0, 1), 1.0); ((0, 2), 1.0); ((0, 3), 1.0); ((1, 2), 1.0); ((1, 3), 1.0);
           ((2, 3), 1.0) ]
      ()
  in
  let k8 =
    let j = ref [] in
    for i = 0 to 7 do
      for k = i + 1 to 7 do
        j := ((i, k), if (i + k) mod 2 = 0 then 1.0 else -1.0) :: !j
      done
    done;
    Problem.create ~num_vars:8 ~h:(Array.make 8 0.1) ~j:!j ()
  in
  let topologies =
    [ ("chimera C4 (shore 4, deg<=6)", Chimera.create 4);
      ("chimera C4 (shore 6, deg<=8)", Chimera.create ~shore:6 4);
      ("pegasus P3 (deg<=15)", Qac_chimera.Pegasus.create 3) ]
  in
  row "%-30s %14s %14s %14s\n" "topology" "K4 qubits" "K8 qubits" "K8 max chain";
  List.iter
    (fun (name, graph) ->
       let stat p =
         match
           Cmr.find
             ~params:{ Cmr.default_params with Cmr.seed = 1; tries = 16; max_passes = 30 }
             graph p
         with
         | Some e ->
           ( string_of_int (Embedding.num_physical_qubits e),
             string_of_int (Embedding.max_chain_length e) )
         | None -> ("fail", "-")
       in
       let k4q, _ = stat k4 in
       let k8q, k8c = stat k8 in
       row "%-30s %14s %14s %14s\n" name k4q k8q k8c)
    topologies;
  (* Dense graphs are the known weak spot of path-based heuristics; the
     deterministic clique template handles them on Chimera. *)
  (match Qac_embed.Clique.find (Chimera.create 4) k8 with
   | Some e ->
     row "%-30s %14s %14d %14d\n" "chimera C4 + clique template" "4*"
       (Embedding.num_physical_qubits e) (Embedding.max_chain_length e)
   | None -> row "clique template failed (unexpected)\n");
  row "(Pegasus hosts K4 natively — its odd couplers create triangles, which no\n";
  row " bipartite Chimera graph contains; cliques and AOI-style cells embed with\n";
  row " visibly shorter chains as connectivity grows)\n\n";
  (* Matched working-qubit budgets: C4 has 128 qubits, P3 has 128 working
     ones.  The first size that embeds is reported, so one hard seed does not
     sink the row. *)
  row "Figure 2 at matched budgets (params_for, seed 5, first of C4/C5 and P3/P4):\n";
  let fig2 = (P.compile fig2_src).P.program.Qac_qmasm.Assemble.problem in
  let rec first_embedding build = function
    | [] -> row "  no size embedded Figure 2\n"
    | m :: rest ->
      let graph = build m in
      (match Cmr.find ~params:{ (Cmr.params_for graph) with Cmr.seed = 5 } graph fig2 with
       | None -> first_embedding build rest
       | Some e ->
         let qubits = Embedding.num_physical_qubits e in
         row "  %-14s %3d qb  max-chain=%d  mean=%.2f  verifies=%b\n"
           graph.Qac_chimera.Topology.name qubits (Embedding.max_chain_length e)
           (float_of_int qubits /. float_of_int (Array.length e.Embedding.chains))
           (Embedding.verify graph fig2 e = Ok ()))
  in
  first_embedding (fun m -> Chimera.create m) [ 4; 5 ];
  first_embedding Qac_chimera.Pegasus.create [ 3; 4 ];
  (* The Advantage box (h in [-4,4], J in [-1,1]) against the 2000Q's: rerun
     each cell's LP and compare gaps. *)
  row "\ncell gaps under each chip's coefficient ranges (LP rerun per cell):\n";
  List.iter
    (fun (name, table) ->
       let gap range =
         match Gen.derive ~range table with
         | Some d when Gen.verify d -> Printf.sprintf "%g (%d anc)" d.Gen.gap d.Gen.num_ancillas
         | Some _ -> "fails verification"
         | None -> "underivable"
       in
       row "  cell %-5s gap: 2000q=%s  advantage=%s\n" name (gap Scale.dwave_2000q)
         (gap Scale.advantage))
    [ ("AND", Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) && v.(1)));
      ("OR", Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) || v.(1)));
      ("XOR", Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) <> v.(1)));
      ("MUX", Truthtab.of_function ~num_inputs:3 (fun v -> if v.(0) then v.(2) else v.(1)));
      ("AOI3", Truthtab.of_function ~num_inputs:3 (fun v -> not ((v.(0) && v.(1)) || v.(2))))
    ]

let ext8 () =
  header "ext8" "Extension — time-to-solution (TTS) scaling on factoring";
  row "(the annealing-literature metric behind claims like section 6.2's: the\n";
  row " expected wall time to hit a ground state with 99%% confidence)\n\n";
  row "%-18s %12s %14s %16s\n" "multiplier" "reads hit" "p(success)" "TTS(99%) [s]";
  List.iter
    (fun w ->
       let src =
         Printf.sprintf
           "module mult (A, B, C); input [%d:0] A, B; output [%d:0] C; assign C = A * B; endmodule"
           (w - 1) ((2 * w) - 1)
       in
       let t = P.compile src in
       (* Pin a wide product with two nontrivial factors. *)
       let product = match w with 2 -> 6 | 3 -> 35 | _ -> 143 in
       let statements =
         t.P.statements
         @ [ Qac_qmasm.Ast.Pin
               (List.init (2 * w) (fun i ->
                    (Printf.sprintf "C[%d]" i, (product lsr i) land 1 = 1))) ]
       in
       let program = Qac_qmasm.Assemble.assemble ~options:P.default_options statements in
       let problem = program.Qac_qmasm.Assemble.problem in
       let response =
         Qac_anneal.Sa.sample
           ~params:{ Qac_anneal.Sa.default_params with
                     Qac_anneal.Sa.num_reads = 200; num_sweeps = 400 * w; seed = 5 }
           problem
       in
       let target = (Sampler.best response).Sampler.energy in
       (* Use the best sampled energy as the target: for the sizes here SA
          does reach the true ground (cross-checked in E12). *)
       let p_succ = Sampler.success_probability response ~target_energy:target in
       let tts = Sampler.time_to_solution response ~target_energy:target in
       row "%-18s %9.0f/200 %14.3f %16s\n"
         (Printf.sprintf "%dx%d bits (C=%d)" w w product)
         (p_succ *. 200.0) p_succ
         (match tts with Some t -> Printf.sprintf "%.4f" t | None -> "-"))
    [ 2; 3; 4 ];
  row "(TTS grows steeply with multiplier width even at these toy sizes --\n";
  row " the classical-substrate cost the paper's D-Wave offloads to hardware)\n"

let ext9 () =
  header "ext9" "Extension — qbsolv splitting a problem onto a chip-sized annealer";
  row "(section 4.3: qmasm can run 'indirectly through qbsolv, which can split\n";
  row " large problems into sub-problems that fit on the D-Wave hardware'.\n";
  row " Here a 200-variable spin glass is decomposed into <=24-variable chunks,\n";
  row " each minor-embedded into a tiny C4 'chip' (128 qubits) and annealed.)\n\n";
  let n = 200 in
  let st = Random.State.make [| 77 |] in
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to min (n - 1) (i + 6) do
      if Random.State.int st 3 = 0 then
        j := ((i, k), Random.State.float st 2.0 -. 1.0) :: !j
    done
  done;
  let p =
    Problem.create ~num_vars:n
      ~h:(Array.init n (fun _ -> Random.State.float st 1.0 -. 0.5))
      ~j:!j ()
  in
  let chip = Chimera.create 4 in
  let embed_failures = ref 0 in
  let hardware_sub_solver sub =
    let params = { Cmr.default_params with Cmr.tries = 2; max_passes = 10; seed = 3 } in
    match Cmr.find ~params chip sub with
    | None ->
      incr embed_failures;
      Qac_anneal.Exact_sampler.sample sub
    | Some e ->
      let physical = Embedding.apply chip sub e in
      let compacted, old_of_new = Embedding.compact physical in
      let response =
        Qac_anneal.Sa.sample
          ~params:{ Qac_anneal.Sa.default_params with
                    Qac_anneal.Sa.num_reads = 12; num_sweeps = 250; seed = 9 }
          compacted
      in
      Embedding.unembed_reads ~old_of_new ~problem:physical e
        response.Qac_anneal.Sampler.samples
      |> List.map (fun ((u : Embedding.unembedded), _) -> u.Embedding.logical)
      |> Qac_anneal.Sampler.response_of_reads sub
  in
  let t0 = Unix.gettimeofday () in
  let via_chip =
    Qac_anneal.Qbsolv.sample
      ~params:{ Qac_anneal.Qbsolv.default_params with
                Qac_anneal.Qbsolv.sub_size = 24; num_repeats = 8; max_rounds = 60 }
      ~sub_solver:hardware_sub_solver p
  in
  let chip_time = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let direct =
    Qac_anneal.Sa.sample
      ~params:{ Qac_anneal.Sa.default_params with
                Qac_anneal.Sa.num_reads = 30; num_sweeps = 600; seed = 4 }
      p
  in
  let direct_time = Unix.gettimeofday () -. t0 in
  row "%-44s %12s %10s\n" "method" "energy" "time";
  row "%-44s %12.2f %9.1fs\n" "qbsolv over embedded C4 sub-anneals"
    (Sampler.best via_chip).Sampler.energy chip_time;
  row "%-44s %12.2f %9.1fs\n" "direct SA on the full logical problem"
    (Sampler.best direct).Sampler.energy direct_time;
  row "(embedding fallbacks to exact: %d; the decomposition attacks a problem\n" !embed_failures;
  row " ~1.6x larger than the chip's qubit count, which is qbsolv's purpose)\n"

let all : (string * string * (unit -> unit)) list =
  [ ("e1", "Figure 2: end-to-end transformation", e1);
    ("e2", "Figure 3: circuit and EDIF netlist", e2);
    ("e3", "Table 1: two-ended net", e3);
    ("e4", "Table 2: AND-gate inequality system", e4);
    ("e5", "Tables 3-4: XOR ancilla", e5);
    ("e6", "Table 5: standard-cell library", e6);
    ("e7", "Listings 1/2/4: QMASM programs", e7);
    ("e8", "Section 4.3.6: argument passing", e8);
    ("e9", "Section 4.4: minor embedding", e9);
    ("e10", "Listing 3: sequential unrolling", e10);
    ("e11", "Listing 5: circuit satisfiability", e11);
    ("e12", "Listing 6: factoring", e12);
    ("e13", "Listing 7: map coloring", e13);
    ("e14", "Section 6.1: static properties", fun () -> e14 ());
    ("e15", "Section 6.2: execution time", e15);
    ("ext1", "Ablation: tech mapping", ext1);
    ("ext2", "Ablation: chain merging", ext2);
    ("ext3", "Extension: coefficient precision", ext3);
    ("ext4", "Extension: broken qubits", ext4);
    ("ext5", "Extension: solver comparison", ext5);
    ("ext6", "Extension: simulated quantum annealing", ext6);
    ("ext7", "Extension: future topologies (Pegasus)", ext7);
    ("ext8", "Extension: time-to-solution scaling", ext8);
    ("ext9", "Extension: qbsolv onto a chip-sized annealer", ext9) ]
