open Qac_ising
open Qac_qmasm
module E2Q = Qac_edif2qmasm.Edif2qmasm

(* Listing 1 of the paper: a K4 antiferromagnet-ish program. *)
let listing1 = {|
A   -1
D    2
A B -5
B C -5
C D -5
D A -5
A C 10
B D 10
|}

let parser_tests =
  [ Alcotest.test_case "weights and couplers (Listing 1)" `Quick (fun () ->
        let stmts = Parser.parse_string listing1 in
        Alcotest.(check int) "8 statements" 8 (List.length stmts);
        match stmts with
        | Ast.Weight ("A", w) :: _ -> Alcotest.(check (float 0.0)) "w" (-1.0) w
        | _ -> Alcotest.fail "first statement");
    Alcotest.test_case "comments stripped" `Quick (fun () ->
        Alcotest.(check int) "1 statement" 1
          (List.length (Parser.parse_string "A 1 # weight on A\n# full comment\n")));
    Alcotest.test_case "chains, anti-chains and aliases" `Quick (fun () ->
        match Parser.parse_string "A = B\nC /= D\n!alias E F" with
        | [ Ast.Chain ("A", "B"); Ast.Anti_chain ("C", "D"); Ast.Alias ("E", "F") ] -> ()
        | _ -> Alcotest.fail "statements");
    Alcotest.test_case "pins: scalar and vector" `Quick (fun () ->
        (match Parser.parse_string "A := true" with
         | [ Ast.Pin [ ("A", true) ] ] -> ()
         | _ -> Alcotest.fail "scalar pin");
        match Parser.parse_string "C[3:0] := 1011" with
        | [ Ast.Pin pins ] ->
          Alcotest.(check (list (pair string bool)))
            "bits"
            [ ("C[3]", true); ("C[2]", false); ("C[1]", true); ("C[0]", true) ]
            pins
        | _ -> Alcotest.fail "vector pin");
    Alcotest.test_case "pin with decimal value" `Quick (fun () ->
        match Parser.parse_string "C[2:0] := 5" with
        | [ Ast.Pin pins ] ->
          Alcotest.(check (list (pair string bool)))
            "bits" [ ("C[2]", true); ("C[1]", false); ("C[0]", true) ] pins
        | _ -> Alcotest.fail "pin");
    Alcotest.test_case "macro definitions and use" `Quick (fun () ->
        let src = "!begin_macro M\nA 1\n!end_macro M\n!use_macro M x y" in
        match Parser.parse_string src with
        | [ Ast.Begin_macro "M"; Ast.Weight ("A", _); Ast.End_macro "M";
            Ast.Use_macro ("M", [ "x"; "y" ]) ] -> ()
        | _ -> Alcotest.fail "statements");
    Alcotest.test_case "assertion parses" `Quick (fun () ->
        match Parser.parse_string "!assert Y = A & B" with
        | [ Ast.Assertion (Ast.Cmp (Ast.C_eq, Ast.Sym "Y", _)) ] -> ()
        | _ -> Alcotest.fail "assertion");
    Alcotest.test_case "assertion with range and arithmetic" `Quick (fun () ->
        match Parser.parse_string "!assert C[7:0] = A[3:0] * B[3:0]" with
        | [ Ast.Assertion (Ast.Cmp (Ast.C_eq, Ast.Sym_range ("C", 7, 0), _)) ] -> ()
        | _ -> Alcotest.fail "assertion");
    Alcotest.test_case "bad directive rejected" `Quick (fun () ->
        match Parser.parse_string "!frobnicate x" with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "line_count skips blanks and comments" `Quick (fun () ->
        Alcotest.(check int) "2" 2 (Parser.line_count "A 1\n\n# c\nB 2\n"));
  ]

let macro_tests =
  [ Alcotest.test_case "expansion prefixes symbols" `Quick (fun () ->
        let src = "!begin_macro M\nA 1\nA B -2\n!end_macro M\n!use_macro M inst" in
        let flat = Macro.expand ~resolve:(fun _ -> None) (Parser.parse_string src) in
        match flat with
        | [ Ast.Weight ("inst.A", _); Ast.Coupler ("inst.A", "inst.B", _) ] -> ()
        | _ -> Alcotest.fail "expansion");
    Alcotest.test_case "nested macros compose prefixes (Listing 4 style)" `Quick (fun () ->
        let src =
          "!begin_macro AND\nY 1\n!end_macro AND\n\
           !begin_macro AND3\n!use_macro AND x\n!use_macro AND y\nx.Y = y.Y\n!end_macro AND3\n\
           !use_macro AND3 top"
        in
        let flat = Macro.expand ~resolve:(fun _ -> None) (Parser.parse_string src) in
        match flat with
        | [ Ast.Weight ("top.x.Y", _); Ast.Weight ("top.y.Y", _);
            Ast.Chain ("top.x.Y", "top.y.Y") ] -> ()
        | other ->
          Alcotest.failf "expansion produced %d statements" (List.length other));
    Alcotest.test_case "includes resolve" `Quick (fun () ->
        let resolve = function
          | "lib.qmasm" -> Some (Parser.parse_string "!begin_macro M\nA 1\n!end_macro M")
          | _ -> None
        in
        let src = "!include \"lib.qmasm\"\n!use_macro M i" in
        let flat = Macro.expand ~resolve (Parser.parse_string src) in
        Alcotest.(check int) "one stmt" 1 (List.length flat));
    Alcotest.test_case "circular include rejected" `Quick (fun () ->
        let resolve = function
          | "a" -> Some (Parser.parse_string "!include \"a\"")
          | _ -> None
        in
        match Macro.expand ~resolve (Parser.parse_string "!include \"a\"") with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "undefined macro rejected" `Quick (fun () ->
        match Macro.expand ~resolve:(fun _ -> None) (Parser.parse_string "!use_macro NO i") with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
  ]

let assemble_tests =
  [ Alcotest.test_case "Listing 1 assembles and solves" `Quick (fun () ->
        let a = Qmasm.load listing1 in
        Alcotest.(check int) "4 variables" 4 (Array.length a.Assemble.symbols_of_var);
        let r = Exact.solve a.Assemble.problem in
        (* The ground state of Listing 1: check it is unique-ish and that
           re-evaluating matches the reported energy. *)
        List.iter
          (fun s ->
             Alcotest.(check (float 1e-9)) "energy" r.Exact.ground_energy
               (Problem.energy a.Assemble.problem s))
          r.Exact.ground_states);
    Alcotest.test_case "chains as couplers vs merged give same ground truth" `Quick
      (fun () ->
         let src = "A 1\nB -0.5\nA = B\nA C -1\n" in
         let coupled = Qmasm.load src in
         let merged =
           Qmasm.load
             ~options:{ Assemble.default_options with Assemble.merge_chains = true }
             src
         in
         Alcotest.(check int) "merged has fewer vars" 2
           (Array.length merged.Assemble.symbols_of_var);
         (* Ground states agree on A and C. *)
         let ground a =
           let r = Exact.solve a.Assemble.problem in
           List.map
             (fun s ->
                let assignment = Assemble.assignment_of_spins a s in
                (List.assoc "A" assignment, List.assoc "C" assignment))
             r.Exact.ground_states
           |> List.sort_uniq compare
         in
         Alcotest.(check bool) "same (A, C) ground sets" true
           (ground coupled = ground merged));
    Alcotest.test_case "anti-chain forces opposite values" `Quick (fun () ->
        let a = Qmasm.load "A /= B\nA 0.1\nB 0.1\n" in
        let r = Exact.solve a.Assemble.problem in
        List.iter
          (fun s ->
             let assignment = Assemble.assignment_of_spins a s in
             Alcotest.(check bool) "opposite" true
               (List.assoc "A" assignment <> List.assoc "B" assignment))
          r.Exact.ground_states);
    Alcotest.test_case "pins fix values" `Quick (fun () ->
        let a = Qmasm.load "A B -1\nA := true\nB := false\n" in
        let r = Exact.solve a.Assemble.problem in
        Alcotest.(check int) "unique" 1 (List.length r.Exact.ground_states);
        let assignment = Assemble.assignment_of_spins a (List.hd r.Exact.ground_states) in
        Alcotest.(check bool) "A" true (List.assoc "A" assignment);
        Alcotest.(check bool) "B" false (List.assoc "B" assignment));
    Alcotest.test_case "alias merges symbols" `Quick (fun () ->
        let a = Qmasm.load "!alias A B\nA 1\nB 1\n" in
        Alcotest.(check int) "one var" 1 (Array.length a.Assemble.symbols_of_var);
        Alcotest.(check (float 1e-9)) "summed h" 2.0 a.Assemble.problem.Problem.h.(0));
    Alcotest.test_case "default chain strength is 2x max literal J" `Quick (fun () ->
        let a = Qmasm.load "A B -5\nC = D\n" in
        Alcotest.(check (float 1e-9)) "strength" 10.0 a.Assemble.chain_strength;
        Alcotest.(check (float 1e-9)) "chain coupler" (-10.0)
          (let va = Option.get (Assemble.variable a "C") in
           let vb = Option.get (Assemble.variable a "D") in
           Problem.get_j a.Assemble.problem va vb));
    Alcotest.test_case "visible assignment hides $ symbols" `Quick (fun () ->
        let a = Qmasm.load "A $x -1\n" in
        let spins = [| 1; 1 |] in
        let visible = Assemble.visible_assignment a spins in
        Alcotest.(check (list (pair string bool))) "only A" [ ("A", true) ] visible);
    Alcotest.test_case "assertions evaluate" `Quick (fun () ->
        let a = Qmasm.load "!assert Y = A & B\nA 0\nB 0\nY 0\n" in
        let spins values =
          let s = Array.make (Array.length a.Assemble.symbols_of_var) (-1) in
          List.iter
            (fun (name, v) -> s.(Option.get (Assemble.variable a name)) <- (if v then 1 else -1))
            values;
          s
        in
        (match Assemble.check_assertions a (spins [ ("A", true); ("B", true); ("Y", true) ]) with
         | [ (_, true) ] -> ()
         | _ -> Alcotest.fail "assertion should hold");
        match Assemble.check_assertions a (spins [ ("A", true); ("B", true); ("Y", false) ]) with
        | [ (_, false) ] -> ()
        | _ -> Alcotest.fail "assertion should fail");
    Alcotest.test_case "range assertion arithmetic" `Quick (fun () ->
        let a = Qmasm.load "!assert C[3:0] = A[1:0] * B[1:0]\nx 0\n" in
        let values =
          [ ("A[1]", true); ("A[0]", true); (* A = 3 *)
            ("B[1]", true); ("B[0]", false); (* B = 2 *)
            ("C[3]", false); ("C[2]", true); ("C[1]", true); ("C[0]", false) (* C = 6 *) ]
        in
        let spins = Array.make (Array.length a.Assemble.symbols_of_var) (-1) in
        List.iter
          (fun (name, v) -> spins.(Option.get (Assemble.variable a name)) <- (if v then 1 else -1))
          values;
        match Assemble.check_assertions a spins with
        | [ (_, true) ] -> ()
        | _ -> Alcotest.fail "3 * 2 = 6 should hold");
  ]

let stdcell_tests =
  [ Alcotest.test_case "stdcell library parses and defines 14 macros" `Quick (fun () ->
        let stmts = Parser.parse_string (Qac_cells.Stdcell.contents ()) in
        let macro_count =
          List.length (List.filter (function Ast.Begin_macro _ -> true | _ -> false) stmts)
        in
        Alcotest.(check int) "macros" 14 macro_count);
    Alcotest.test_case "stdcell AND macro solves to AND truth table" `Quick (fun () ->
        let src = "!include \"stdcell.qmasm\"\n!use_macro AND g\n" in
        let a = Qmasm.load ~resolve:E2Q.resolve src in
        let r = Exact.solve a.Assemble.problem in
        List.iter
          (fun s ->
             let assignment = Assemble.assignment_of_spins a s in
             let v n = List.assoc n assignment in
             Alcotest.(check bool) "AND relation" (v "g.A" && v "g.B") (v "g.Y"))
          r.Exact.ground_states;
        Alcotest.(check int) "4 ground states" 4 (List.length r.Exact.ground_states));
    Alcotest.test_case "section 4.3.6: AND3 macro forward and backward" `Quick (fun () ->
        let and3 =
          "!include \"stdcell.qmasm\"\n\
           !begin_macro AND3\n\
           !use_macro AND $and1\n\
           !use_macro AND $and2\n\
           A = $and1.A\nB = $and1.B\nC = $and2.B\nY = $and2.Y\n\
           $and1.Y = $and2.A\n\
           !end_macro AND3\n\
           !use_macro AND3 my_and\n"
        in
        (* Forward: AND(T, F, T) = F. *)
        let fwd =
          Qmasm.load ~resolve:E2Q.resolve
            (and3 ^ "my_and.A := true\nmy_and.B := false\nmy_and.C := true\n")
        in
        let r = Exact.solve fwd.Assemble.problem in
        List.iter
          (fun s ->
             Alcotest.(check bool) "Y false" false
               (List.assoc "my_and.Y" (Assemble.assignment_of_spins fwd s)))
          r.Exact.ground_states;
        (* Backward: Y := true forces A = B = C = true. *)
        let bwd = Qmasm.load ~resolve:E2Q.resolve (and3 ^ "my_and.Y := true\n") in
        let r = Exact.solve bwd.Assemble.problem in
        Alcotest.(check bool) "some ground state" true (r.Exact.ground_states <> []);
        List.iter
          (fun s ->
             let assignment = Assemble.assignment_of_spins bwd s in
             Alcotest.(check bool) "A" true (List.assoc "my_and.A" assignment);
             Alcotest.(check bool) "B" true (List.assoc "my_and.B" assignment);
             Alcotest.(check bool) "C" true (List.assoc "my_and.C" assignment))
          r.Exact.ground_states);
  ]

let e2q_tests =
  [ Alcotest.test_case "AND gate netlist converts and runs backward" `Quick (fun () ->
        let n =
          (Qac_verilog.Synth.compile
             "module t (a, b, y); input a, b; output y; assign y = a & b; endmodule")
            .Qac_verilog.Synth.netlist
        in
        let src = fst (E2Q.convert n) ^ "y := true\n" in
        let a = Qmasm.load ~resolve:E2Q.resolve src in
        let r = Exact.solve a.Assemble.problem in
        List.iter
          (fun s ->
             let assignment = Assemble.assignment_of_spins a s in
             Alcotest.(check bool) "a" true (List.assoc "a" assignment);
             Alcotest.(check bool) "b" true (List.assoc "b" assignment))
          r.Exact.ground_states);
    Alcotest.test_case "Figure 2 mux: forward relation in ground states" `Quick (fun () ->
        let n =
          (Qac_verilog.Synth.compile
             "module circuit (s, a, b, c); input s, a, b; output [1:0] c; assign c = s ? a + b : a - b; endmodule")
            .Qac_verilog.Synth.netlist
        in
        let a =
          E2Q.load ~options:{ Assemble.default_options with Assemble.merge_chains = true } n
        in
        let r = Exact.solve a.Assemble.problem in
        (* Every ground state must be a valid (s, a, b, c) relation. *)
        Alcotest.(check int) "8 ground states (one per input combo)" 8
          (List.length (List.sort_uniq compare
                          (List.map
                             (fun s ->
                                let v = Assemble.assignment_of_spins a s in
                                (List.assoc "s" v, List.assoc "a" v, List.assoc "b" v))
                             r.Exact.ground_states)));
        List.iter
          (fun spins ->
             let v = Assemble.assignment_of_spins a spins in
             let b2i x = if x then 1 else 0 in
             let s = b2i (List.assoc "s" v) in
             let av = b2i (List.assoc "a" v) in
             let bv = b2i (List.assoc "b" v) in
             let c = (2 * b2i (List.assoc "c[1]" v)) + b2i (List.assoc "c[0]" v) in
             let expected = if s = 1 then (av + bv) land 3 else (av - bv) land 3 in
             Alcotest.(check int) "relation" expected c)
          r.Exact.ground_states);
    Alcotest.test_case "constants become gnd/vcc weights" `Quick (fun () ->
        let n =
          (Qac_verilog.Synth.compile
             "module t (a, o); input a; output [1:0] o; assign o = {1'b1, a}; endmodule")
            .Qac_verilog.Synth.netlist
        in
        let src = fst (E2Q.convert n) in
        Alcotest.(check bool) "has vcc weight" true
          (List.exists
             (function Ast.Weight ("$vcc", w) -> w < 0.0 | _ -> false)
             (Parser.parse_string src)));
    Alcotest.test_case "generated program pins work through ports" `Quick (fun () ->
        (* Multiplier run backward: factor 6 = 2 x 3 with 2-bit inputs. *)
        let n =
          (Qac_verilog.Synth.compile
             "module mult (A, B, C); input [1:0] A, B; output [3:0] C; assign C = A * B; endmodule")
            .Qac_verilog.Synth.netlist
        in
        let src = fst (E2Q.convert n) ^ "C[3:0] := 0110\n" in
        let a =
          Qmasm.load ~resolve:E2Q.resolve
            ~options:{ Assemble.default_options with Assemble.merge_chains = true } src
        in
        let r = Exact.solve a.Assemble.problem in
        Alcotest.(check bool) "found solutions" true (r.Exact.ground_states <> []);
        let factors =
          List.map
            (fun spins ->
               let v = Assemble.assignment_of_spins a spins in
               let word name w =
                 let acc = ref 0 in
                 for i = w - 1 downto 0 do
                   acc := (!acc * 2) + if List.assoc (Printf.sprintf "%s[%d]" name i) v then 1 else 0
                 done;
                 !acc
               in
               (word "A" 2, word "B" 2))
            r.Exact.ground_states
          |> List.sort_uniq compare
        in
        Alcotest.(check (list (pair int int))) "factor pairs" [ (2, 3); (3, 2) ] factors);
    Alcotest.test_case "line_count excludes nothing but blanks/comments" `Quick (fun () ->
        let n =
          (Qac_verilog.Synth.compile
             "module t (a, y); input a; output y; assign y = ~a; endmodule")
            .Qac_verilog.Synth.netlist
        in
        let src = fst (E2Q.convert n) in
        Alcotest.(check bool) "some lines" true (E2Q.line_count src > 3));
  ]

let minizinc_tests =
  [ Alcotest.test_case "minizinc output contains vars and objective" `Quick (fun () ->
        let a = Qmasm.load "A -1\nA B -2\n" in
        let mzn = Qmasm.to_minizinc a in
        let has needle =
          match Qac_qmasm.Str_split.find_substring mzn needle with
          | Some _ -> true
          | None -> false
        in
        Alcotest.(check bool) "var decl" true (has "var 0..1: vA;");
        Alcotest.(check bool) "objective" true (has "solve minimize energy;");
        Alcotest.(check bool) "scaled coefficient" true (has "-2*"));
  ]

let suite =
  parser_tests @ macro_tests @ assemble_tests @ stdcell_tests @ e2q_tests @ minizinc_tests

(* Round-trip property: printing a flat statement list and re-parsing it
   yields the same statements. *)
let roundtrip_tests =
  let gen_symbol =
    QCheck.Gen.(
      let* base = oneofl [ "A"; "B"; "x"; "node"; "g.Y"; "$anc"; "C[3]" ] in
      return base)
  in
  let gen_stmt =
    QCheck.Gen.(
      let* kind = int_bound 5 in
      let* a = gen_symbol in
      let* b = gen_symbol in
      let* w = float_bound_exclusive 8.0 in
      let w = Float.round (w *. 16.0) /. 16.0 in
      match kind with
      | 0 -> return (Ast.Weight (a, w))
      | 1 -> return (if a = b then Ast.Weight (a, w) else Ast.Coupler (a, b, w))
      | 2 -> return (if a = b then Ast.Weight (a, 1.0) else Ast.Chain (a, b))
      | 3 -> return (if a = b then Ast.Weight (a, 1.0) else Ast.Anti_chain (a, b))
      | 4 -> return (Ast.Alias ("p", "q"))
      | _ -> return (Ast.Pin [ (a, true) ]))
  in
  let print_parse =
    QCheck.Test.make ~name:"print/parse round-trip for flat statements" ~count:100
      (QCheck.make QCheck.Gen.(list_size (int_range 1 15) gen_stmt))
      (fun stmts ->
         let src = Ast.program_to_string stmts in
         Parser.parse_string src = stmts)
  in
  [ QCheck_alcotest.to_alcotest print_parse ]

let suite = suite @ roundtrip_tests

(* Statement order must not matter: the Hamiltonian is a sum. *)
let permutation_tests =
  let invariance =
    QCheck.Test.make ~name:"assembly is invariant under statement permutation" ~count:50
      QCheck.(int_bound 100000)
      (fun seed ->
         let st = Random.State.make [| seed |] in
         let sym i = Printf.sprintf "v%d" i in
         let stmts =
           List.init 12 (fun _ ->
               match Random.State.int st 3 with
               | 0 -> Ast.Weight (sym (Random.State.int st 5), Random.State.float st 2.0 -. 1.0)
               | 1 ->
                 let a = Random.State.int st 5 in
                 let b = (a + 1 + Random.State.int st 4) mod 5 in
                 Ast.Coupler (sym a, sym b, Random.State.float st 2.0 -. 1.0)
               | _ ->
                 let a = Random.State.int st 5 in
                 let b = (a + 1 + Random.State.int st 4) mod 5 in
                 Ast.Chain (sym a, sym b))
           (* Anchor the symbol table so both orders share it. *)
           |> List.append (List.init 5 (fun i -> Ast.Weight (sym i, 0.0)))
         in
         let shuffled =
           let arr = Array.of_list stmts in
           (* Keep the five anchors first so variable numbering agrees. *)
           let anchors = Array.sub arr 0 5 in
           let rest = Array.sub arr 5 (Array.length arr - 5) in
           for i = Array.length rest - 1 downto 1 do
             let j = Random.State.int st (i + 1) in
             let tmp = rest.(i) in
             rest.(i) <- rest.(j);
             rest.(j) <- tmp
           done;
           Array.to_list (Array.append anchors rest)
         in
         let p1 = (Assemble.assemble stmts).Assemble.problem in
         let p2 = (Assemble.assemble shuffled).Assemble.problem in
         p1.Qac_ising.Problem.num_vars = p2.Qac_ising.Problem.num_vars
         && List.for_all
              (fun code ->
                 let spins =
                   Array.init p1.Qac_ising.Problem.num_vars (fun i ->
                       if (code lsr i) land 1 = 1 then 1 else -1)
                 in
                 Float.abs
                   (Qac_ising.Problem.energy p1 spins -. Qac_ising.Problem.energy p2 spins)
                 < 1e-9)
              (List.init (1 lsl p1.Qac_ising.Problem.num_vars) (fun c -> c)))
  in
  [ QCheck_alcotest.to_alcotest invariance ]

let suite = suite @ permutation_tests

(* Every standard cell, exercised through the textual stdcell.qmasm path:
   parse -> expand -> assemble -> exact solve -> visible ground states must
   equal the cell's truth table. *)
let all_cells_via_text =
  List.filter_map
    (fun (cell : Qac_cells.Cells.t) ->
       if cell.Qac_cells.Cells.is_flip_flop then None
       else
         Some
           (Alcotest.test_case
              ("stdcell text path: " ^ cell.Qac_cells.Cells.name)
              `Quick
              (fun () ->
                 let src =
                   Printf.sprintf "!include \"stdcell.qmasm\"\n!use_macro %s g\n"
                     cell.Qac_cells.Cells.name
                 in
                 let a = Qmasm.load ~resolve:E2Q.resolve src in
                 let r = Exact.solve a.Assemble.problem in
                 let num_inputs = List.length cell.Qac_cells.Cells.inputs in
                 let visible_rows =
                   List.map
                     (fun spins ->
                        let v = Assemble.assignment_of_spins a spins in
                        let bit name = if List.assoc ("g." ^ name) v then 1 else 0 in
                        List.map bit cell.Qac_cells.Cells.inputs @ [ bit "Y" ])
                     r.Exact.ground_states
                   |> List.sort_uniq compare
                 in
                 Alcotest.(check int)
                   "one visible row per input combination"
                   (1 lsl num_inputs)
                   (List.length visible_rows);
                 List.iter
                   (fun row ->
                      let inputs = Array.of_list (List.map (fun b -> b = 1) row) in
                      let expected =
                        cell.Qac_cells.Cells.logic (Array.sub inputs 0 num_inputs)
                      in
                      Alcotest.(check bool) "logic" expected
                        (List.nth row num_inputs = 1))
                   visible_rows;
                 (* And the macro's own assertion must hold on every ground
                    state. *)
                 List.iter
                   (fun spins ->
                      List.iter
                        (fun (_, ok) -> Alcotest.(check bool) "assert" true ok)
                        (Assemble.check_assertions a spins))
                   r.Exact.ground_states)))
    Qac_cells.Cells.all

let qmasm_edge_tests =
  [ Alcotest.test_case "weight on chained symbol lands on merged variable" `Quick
      (fun () ->
         let a =
           Qmasm.load
             ~options:{ Assemble.default_options with Assemble.merge_chains = true }
             "A = B\nB 1.5\nA 0.5\n"
         in
         Alcotest.(check int) "one var" 1 (Array.length a.Assemble.symbols_of_var);
         Alcotest.(check (float 1e-9)) "summed" 2.0 a.Assemble.problem.Problem.h.(0));
    Alcotest.test_case "coupler between merged symbols becomes offset" `Quick (fun () ->
        let a =
          Qmasm.load
            ~options:{ Assemble.default_options with Assemble.merge_chains = true }
            "A = B\nA B -3\n"
        in
        Alcotest.(check (float 1e-9)) "offset" (-3.0) a.Assemble.problem.Problem.offset);
    Alcotest.test_case "anti-chain between merged symbols rejected" `Quick (fun () ->
        match
          Qmasm.load
            ~options:{ Assemble.default_options with Assemble.merge_chains = true }
            "A = B\nA /= B\n"
        with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "pin of unknown-but-fresh symbol creates it" `Quick (fun () ->
        let a = Qmasm.load "fresh := true\n" in
        Alcotest.(check int) "one var" 1 (Array.length a.Assemble.symbols_of_var);
        let r = Exact.solve a.Assemble.problem in
        List.iter
          (fun s -> Alcotest.(check int) "pinned true" 1 s.(0))
          r.Exact.ground_states);
  ]

let suite = suite @ all_cells_via_text @ qmasm_edge_tests
