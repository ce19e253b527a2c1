module P = Qac_core.Pipeline

let fig2_src =
  {|
module circuit (s, a, b, c);
  input s;
  input a;
  input b;
  output [1:0] c;
  assign c = s ? a + b : a - b;
endmodule
|}

let circsat_src =
  {|
module circsat (a, b, c, y);
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
endmodule
|}

let mult_src w =
  Printf.sprintf
    "module mult (A, B, C);\n  input [%d:0] A;\n  input [%d:0] B;\n  output [%d:0] C;\n  assign C = A * B;\nendmodule\n"
    (w - 1) (w - 1) ((2 * w) - 1)

let australia_src =
  {|
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD && SA != QLD
              && SA != NSW && SA != VIC && QLD != NSW && NSW != VIC && NSW != ACT;
endmodule
|}

let counter_src =
  {|
module count (clk, inc, reset, out);
  input clk;
  input inc;
  input reset;
  output [1:0] out;
  reg [1:0] var;
  always @(posedge clk)
    if (reset)
      var <= 0;
    else
      if (inc)
        var <= var + 1;
  assign out = var;
endmodule
|}

let sa_params ~reads ~sweeps ~seed =
  { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = reads; num_sweeps = sweeps; seed }

let compile_tests =
  [ Alcotest.test_case "fig2 compiles through every stage" `Quick (fun () ->
        let t = P.compile fig2_src in
        let props = P.static_properties t in
        Alcotest.(check bool) "verilog lines" true (props.P.verilog_lines >= 7);
        Alcotest.(check bool) "edif bigger than verilog" true
          (props.P.edif_lines > props.P.verilog_lines);
        Alcotest.(check bool) "qmasm nonempty" true (props.P.qmasm_lines > 10);
        Alcotest.(check bool) "has logical vars" true (props.P.logical_vars > 5));
    Alcotest.test_case "sequential module without steps is rejected" `Quick (fun () ->
        match P.compile counter_src with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "port widths known" `Quick (fun () ->
        let t = P.compile fig2_src in
        Alcotest.(check (option int)) "c" (Some 2) (P.port_width t "c");
        Alcotest.(check (option int)) "s" (Some 1) (P.port_width t "s");
        Alcotest.(check (option int)) "nope" None (P.port_width t "zz"));
  ]

let forward_backward_tests =
  [ Alcotest.test_case "fig2 forward: s=1 a=1 b=1 gives c=2" `Quick (fun () ->
        let t = P.compile fig2_src in
        let result =
          P.run t ~pins:[ ("s", 1); ("a", 1); ("b", 1) ] ~solver:P.Exact_solver
            ~target:P.Logical
        in
        match P.valid_solutions result with
        | [ s ] -> Alcotest.(check int) "c" 2 (List.assoc "c" s.P.ports)
        | other -> Alcotest.failf "expected one solution, got %d" (List.length other));
    Alcotest.test_case "fig2 forward: s=0 a=0 b=1 wraps to c=3" `Quick (fun () ->
        let t = P.compile fig2_src in
        let result =
          P.run t ~pins:[ ("s", 0); ("a", 0); ("b", 1) ] ~solver:P.Exact_solver
            ~target:P.Logical
        in
        match P.valid_solutions result with
        | [ s ] -> Alcotest.(check int) "c" 3 (List.assoc "c" s.P.ports)
        | _ -> Alcotest.fail "expected exactly one solution");
    Alcotest.test_case "fig2 backward: c=2, s=1 implies a+b=2" `Quick (fun () ->
        let t = P.compile fig2_src in
        let result =
          P.run t ~pins:[ ("c", 2); ("s", 1) ] ~solver:P.Exact_solver ~target:P.Logical
        in
        let valid = P.valid_solutions result in
        Alcotest.(check bool) "found" true (valid <> []);
        List.iter
          (fun s ->
             Alcotest.(check int) "a+b" 2
               (List.assoc "a" s.P.ports + List.assoc "b" s.P.ports))
          valid);
    Alcotest.test_case "unpinned fig2: every ground state is a valid relation" `Quick
      (fun () ->
         let t = P.compile fig2_src in
         let result = P.run t ~solver:P.Exact_solver ~target:P.Logical in
         Alcotest.(check int) "8 solutions (one per input combo)" 8
           (List.length result.P.solutions);
         List.iter
           (fun s -> Alcotest.(check bool) "valid" true s.P.valid)
           result.P.solutions);
    Alcotest.test_case "circsat backward finds (1,1,0) — the paper's answer" `Quick
      (fun () ->
         let t = P.compile circsat_src in
         let result = P.run t ~pins:[ ("y", 1) ] ~solver:P.Exact_solver ~target:P.Logical in
         match P.valid_solutions result with
         | [ s ] ->
           Alcotest.(check int) "a" 1 (List.assoc "a" s.P.ports);
           Alcotest.(check int) "b" 1 (List.assoc "b" s.P.ports);
           Alcotest.(check int) "c" 0 (List.assoc "c" s.P.ports)
         | other -> Alcotest.failf "expected the unique satisfying assignment, got %d" (List.length other));
    Alcotest.test_case "factoring 2-bit: C=6 gives {2,3} (exact)" `Quick (fun () ->
        let t = P.compile (mult_src 2) in
        let result = P.run t ~pins:[ ("C", 6) ] ~solver:P.Exact_solver ~target:P.Logical in
        let factors =
          List.map
            (fun s -> (List.assoc "A" s.P.ports, List.assoc "B" s.P.ports))
            (P.valid_solutions result)
          |> List.sort_uniq compare
        in
        Alcotest.(check (list (pair int int))) "factors" [ (2, 3); (3, 2) ] factors);
    Alcotest.test_case "multiplication forward: 3 x 2 = 6 (2-bit, exact)" `Quick (fun () ->
        let t = P.compile (mult_src 2) in
        let result =
          P.run t ~pins:[ ("A", 3); ("B", 2) ] ~solver:P.Exact_solver ~target:P.Logical
        in
        match P.valid_solutions result with
        | [ s ] -> Alcotest.(check int) "C" 6 (List.assoc "C" s.P.ports)
        | _ -> Alcotest.fail "expected one solution");
    Alcotest.test_case "division sideways: C=6, A=3 gives B=2 (paper section 5.3)" `Quick
      (fun () ->
         let t = P.compile (mult_src 2) in
         let result =
           P.run t ~pins:[ ("C", 6); ("A", 3) ] ~solver:P.Exact_solver ~target:P.Logical
         in
         match P.valid_solutions result with
         | [ s ] -> Alcotest.(check int) "B" 2 (List.assoc "B" s.P.ports)
         | _ -> Alcotest.fail "expected one solution");
    Alcotest.test_case "factoring 4-bit: C=143 gives {11,13} (SA, section 5.3)" `Slow
      (fun () ->
         let t = P.compile (mult_src 4) in
         let solver = P.Sa (sa_params ~reads:500 ~sweeps:2000 ~seed:5) in
         let result = P.run t ~pins:[ ("C", 143) ] ~solver ~target:P.Logical in
         let factors =
           List.map
             (fun s -> (List.assoc "A" s.P.ports, List.assoc "B" s.P.ports))
             (P.valid_solutions result)
           |> List.sort_uniq compare
         in
         (* The paper: "returns two unique solutions: {A=11, B=13} and
            {A=13, B=11}". *)
         Alcotest.(check (list (pair int int))) "both factorizations"
           [ (11, 13); (13, 11) ] factors);
    Alcotest.test_case "map coloring backward finds a valid coloring (SA)" `Slow (fun () ->
        let t = P.compile australia_src in
        let solver = P.Sa (sa_params ~reads:200 ~sweeps:500 ~seed:3) in
        let result = P.run t ~pins:[ ("valid", 1) ] ~solver ~target:P.Logical in
        let valid = P.valid_solutions result in
        Alcotest.(check bool) "found colorings" true (valid <> []);
        (* Cross-check one against the adjacency requirements. *)
        let s = List.hd valid in
        let color r = List.assoc r s.P.ports in
        List.iter
          (fun (x, y) ->
             Alcotest.(check bool) (x ^ "!=" ^ y) true (color x <> color y))
          [ ("WA", "NT"); ("WA", "SA"); ("NT", "SA"); ("NT", "QLD"); ("SA", "QLD");
            ("SA", "NSW"); ("SA", "VIC"); ("QLD", "NSW"); ("NSW", "VIC"); ("NSW", "ACT") ]);
    Alcotest.test_case "counter unrolled 3 steps counts (exact)" `Quick (fun () ->
        let t = P.compile counter_src ~steps:3 in
        let pins =
          [ ("var[0]@init", 0); ("var[1]@init", 0);
            ("inc@0", 1); ("reset@0", 0); ("clk@0", 0);
            ("inc@1", 1); ("reset@1", 0); ("clk@1", 0);
            ("inc@2", 1); ("reset@2", 0); ("clk@2", 0) ]
        in
        let solver = P.Qbsolv Qac_anneal.Qbsolv.default_params in
        let result = P.run t ~pins ~solver ~target:P.Logical in
        match P.valid_solutions result with
        | [ s ] ->
          Alcotest.(check int) "out@0" 0 (List.assoc "out@0" s.P.ports);
          Alcotest.(check int) "out@1" 1 (List.assoc "out@1" s.P.ports);
          Alcotest.(check int) "out@2" 2 (List.assoc "out@2" s.P.ports);
          Alcotest.(check int) "final" 3
            ((2 * List.assoc "var[1]@final" s.P.ports) + List.assoc "var[0]@final" s.P.ports)
        | other -> Alcotest.failf "expected one solution, got %d" (List.length other));
    Alcotest.test_case "counter run backward: what input reaches 2 in 2 steps?" `Quick
      (fun () ->
         let t = P.compile counter_src ~steps:2 in
         let pins =
           [ ("var[0]@init", 0); ("var[1]@init", 0);
             ("reset@0", 0); ("reset@1", 0); ("clk@0", 0); ("clk@1", 0);
             ("var[0]@final", 0); ("var[1]@final", 1) ]
         in
         let result = P.run t ~pins ~solver:P.Exact_solver ~target:P.Logical in
         match P.valid_solutions result with
         | [ s ] ->
           (* Reaching 2 from 0 in two steps requires inc on both. *)
           Alcotest.(check int) "inc@0" 1 (List.assoc "inc@0" s.P.ports);
           Alcotest.(check int) "inc@1" 1 (List.assoc "inc@1" s.P.ports)
         | other -> Alcotest.failf "expected unique solution, got %d" (List.length other));
  ]

let physical_tests =
  [ Alcotest.test_case "fig2 on a C16 Chimera via SA" `Slow (fun () ->
        let t = P.compile fig2_src in
        let solver = P.Sa (sa_params ~reads:60 ~sweeps:400 ~seed:1) in
        let result =
          P.run t ~pins:[ ("s", 1); ("a", 1); ("b", 1) ] ~solver ~target:P.dwave_target
        in
        (match result.P.num_physical_qubits with
         | Some q ->
           Alcotest.(check bool) "physical qubits >= logical vars" true
             (q >= result.P.num_logical_vars)
         | None -> Alcotest.fail "expected physical qubit count");
        let valid = P.valid_solutions result in
        Alcotest.(check bool) "found valid" true (valid <> []);
        Alcotest.(check int) "c = 2" 2 (List.assoc "c" (List.hd valid).P.ports));
    Alcotest.test_case "roof duality fixes strongly pinned variables" `Quick (fun () ->
        let t = P.compile fig2_src in
        (* Pins are biases; with a strong pin weight, roof duality provably
           fixes at least the pinned variables themselves. *)
        let statements =
          t.P.statements
          @ [ Qac_qmasm.Ast.Pin [ ("s", true) ];
              Qac_qmasm.Ast.Pin [ ("a", true) ];
              Qac_qmasm.Ast.Pin [ ("b", true) ] ]
        in
        let options =
          { P.default_options with Qac_qmasm.Assemble.pin_strength = Some 16.0 }
        in
        let program = Qac_qmasm.Assemble.assemble ~options statements in
        let s = Qac_roofdual.Qpbo.simplify program.Qac_qmasm.Assemble.problem in
        Alcotest.(check bool) "fixes at least the pinned variables" true
          (List.length s.Qac_roofdual.Qpbo.fixed >= 3);
        (* And the reduced problem still has the same optimum. *)
        let exact_full = Qac_ising.Exact.solve program.Qac_qmasm.Assemble.problem in
        let exact_reduced = Qac_ising.Exact.solve s.Qac_roofdual.Qpbo.reduced in
        Alcotest.(check (float 1e-6)) "optimum preserved"
          exact_full.Qac_ising.Exact.ground_energy
          exact_reduced.Qac_ising.Exact.ground_energy);
    Alcotest.test_case "physical run with roof duality enabled" `Slow (fun () ->
        let t = P.compile fig2_src in
        let solver = P.Sa (sa_params ~reads:40 ~sweeps:300 ~seed:2) in
        let target =
          P.Physical
            { graph = Qac_chimera.Chimera.create 8;
              chain_strength = None;
              roof_duality = true }
        in
        let result = P.run t ~pins:[ ("s", 0); ("a", 1); ("b", 1) ] ~solver ~target in
        let valid = P.valid_solutions result in
        Alcotest.(check bool) "found valid" true (valid <> []);
        Alcotest.(check int) "c = 0" 0 (List.assoc "c" (List.hd valid).P.ports));
  ]

let suite = compile_tests @ forward_backward_tests @ physical_tests
