(* Second battery of pipeline tests: alternate solvers, topologies, pin
   syntaxes and failure modes. *)

module P = Qac_core.Pipeline
module Sampler = Qac_anneal.Sampler

let fig2_src =
  "module circuit (s, a, b, c); input s, a, b; output [1:0] c; assign c = s ? a + b : a - b; endmodule"

let parity_src =
  "module parity (x, p); input [4:0] x; output p; assign p = ^x; endmodule"

let eq_src =
  "module eq (a, b, y); input [2:0] a, b; output y; assign y = a == b; endmodule"

let suite =
  [ Alcotest.test_case "pin_source with binary vector" `Quick (fun () ->
        let t = P.compile fig2_src in
        let result =
          P.run t ~pin_source:"c[1:0] := 10\ns := 1\n" ~solver:P.Exact_solver
            ~target:P.Logical
        in
        List.iter
          (fun s ->
             Alcotest.(check int) "a + b = 2" 2
               (List.assoc "a" s.P.ports + List.assoc "b" s.P.ports))
          (P.valid_solutions result));
    Alcotest.test_case "bad pin_source reported" `Quick (fun () ->
        let t = P.compile fig2_src in
        match P.run t ~pin_source:"!garbage x" ~solver:P.Exact_solver ~target:P.Logical with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "out-of-range integer pin rejected" `Quick (fun () ->
        let t = P.compile fig2_src in
        match P.run t ~pins:[ ("c", 4) ] ~solver:P.Exact_solver ~target:P.Logical with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "SQA solver through the pipeline" `Quick (fun () ->
        let t = P.compile fig2_src in
        let solver =
          P.Sqa { Qac_anneal.Sqa.default_params with Qac_anneal.Sqa.num_reads = 20 }
        in
        let result = P.run t ~pins:[ ("s", 1); ("a", 1); ("b", 0) ] ~solver ~target:P.Logical in
        match P.valid_solutions result with
        | s :: _ -> Alcotest.(check int) "c" 1 (List.assoc "c" s.P.ports)
        | [] -> Alcotest.fail "SQA found no valid solution");
    Alcotest.test_case "tabu solver through the pipeline" `Quick (fun () ->
        let t = P.compile eq_src in
        let solver =
          P.Tabu { Qac_anneal.Tabu.default_params with Qac_anneal.Tabu.num_restarts = 30 }
        in
        let result = P.run t ~pins:[ ("y", 1); ("a", 5) ] ~solver ~target:P.Logical in
        match P.valid_solutions result with
        | s :: _ -> Alcotest.(check int) "b" 5 (List.assoc "b" s.P.ports)
        | [] -> Alcotest.fail "tabu found no valid solution");
    Alcotest.test_case "Pegasus target end-to-end" `Quick (fun () ->
        let t = P.compile fig2_src in
        let target =
          P.Physical
            { graph = Qac_chimera.Pegasus.create 3;
              chain_strength = None;
              roof_duality = false }
        in
        let solver =
          P.Sa { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 80; num_sweeps = 600 }
        in
        let result = P.run t ~pins:[ ("s", 1); ("a", 1); ("b", 1) ] ~solver ~target in
        (match result.P.num_physical_qubits with
         | Some q ->
           Alcotest.(check bool) "pegasus needs fewer extra qubits" true
             (q < 2 * result.P.num_logical_vars)
         | None -> Alcotest.fail "no qubit count");
        match P.valid_solutions result with
        | s :: _ -> Alcotest.(check int) "c" 2 (List.assoc "c" s.P.ports)
        | [] -> Alcotest.fail "no valid solution on Pegasus");
    Alcotest.test_case "parity circuit backward (odd parity demanded)" `Quick (fun () ->
        let t = P.compile parity_src in
        let result = P.run t ~pins:[ ("p", 1) ] ~solver:P.Exact_solver ~target:P.Logical in
        let valid = P.valid_solutions result in
        Alcotest.(check int) "16 odd-parity inputs" 16 (List.length valid);
        List.iter
          (fun s ->
             let x = List.assoc "x" s.P.ports in
             let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
             Alcotest.(check int) "odd parity" 1 (popcount x mod 2))
          valid);
    Alcotest.test_case "assertion failures counted separately from validity" `Quick
      (fun () ->
         let t = P.compile fig2_src in
         (* Weak SA on the physical problem can produce port-valid samples
            with internal cells excited; the counters must be consistent. *)
         let solver =
           P.Sa { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 30; num_sweeps = 30 }
         in
         let result = P.run t ~solver ~target:P.Logical in
         let failures =
           List.length (List.filter (fun s -> not s.P.assertions_ok) result.P.solutions)
         in
         Alcotest.(check int) "counter matches" failures result.P.assertion_failures);
    Alcotest.test_case "time-to-solution metric" `Quick (fun () ->
        let p =
          Qac_ising.Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] ()
        in
        let r =
          Qac_anneal.Sa.sample
            ~params:{ Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 10 } p
        in
        Alcotest.(check (float 1e-9)) "all reads succeed" 1.0
          (Sampler.success_probability r ~target_energy:(-1.0));
        (match Sampler.time_to_solution r ~target_energy:(-1.0) with
         | Some t -> Alcotest.(check bool) "finite" true (t >= 0.0)
         | None -> Alcotest.fail "expected a TTS");
        Alcotest.(check (option (float 0.0))) "unreachable target" None
          (Sampler.time_to_solution r ~target_energy:(-100.0)));
  ]
