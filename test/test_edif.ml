open Qac_netlist
module Edif = Qac_edif.Edif
module B = Netlist.Builder

let bits_of_int width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bits bits =
  let v = ref 0 in
  Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) bits;
  !v

(* Behavioural round-trip: the parsed netlist must compute the same function
   as the original on all (or sampled) inputs. *)
let check_roundtrip ?(max_exhaustive = 10) (n : Netlist.t) =
  let text = Edif.to_string n in
  let n' = Edif.of_string text in
  let total_bits =
    List.fold_left (fun acc (_, nets) -> acc + Array.length nets) 0 n.Netlist.inputs
  in
  let cases =
    if total_bits <= max_exhaustive then List.init (1 lsl total_bits) (fun c -> c)
    else
      let st = Random.State.make [| 99 |] in
      List.init 50 (fun _ -> Random.State.int st (1 lsl (min total_bits 30)))
  in
  List.iter
    (fun code ->
       let _, inputs =
         List.fold_left
           (fun (shift, acc) (name, nets) ->
              let w = Array.length nets in
              (shift + w, (name, bits_of_int w ((code lsr shift) land ((1 lsl w) - 1))) :: acc))
           (0, []) n.Netlist.inputs
       in
       let expected = Sim.comb n ~inputs in
       let got = Sim.comb n' ~inputs in
       List.iter
         (fun (name, bits) ->
            Alcotest.(check int) (Printf.sprintf "%s @%d" name code)
              (int_of_bits bits)
              (int_of_bits (List.assoc name got)))
         expected)
    cases

let verilog_netlist src = (Qac_verilog.Synth.compile src).Qac_verilog.Synth.netlist

let suite =
  [ Alcotest.test_case "structure: version, libraries, design" `Quick (fun () ->
        let n = verilog_netlist "module t (a, b, o); input a, b; output o; assign o = a & b; endmodule" in
        let sexp = Edif.to_sexp n in
        Alcotest.(check bool) "has edifVersion" true
          (Qac_sexp.Sexp.find ~tag:"edifVersion" sexp <> None);
        Alcotest.(check int) "two libraries" 2
          (List.length (Qac_sexp.Sexp.find_all ~tag:"library" sexp));
        Alcotest.(check bool) "has design" true
          (Qac_sexp.Sexp.find ~tag:"design" sexp <> None));
    Alcotest.test_case "round-trip simple AND" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist
             "module t (a, b, o); input a, b; output o; assign o = a & b; endmodule"));
    Alcotest.test_case "round-trip Figure 2 mux" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist
             "module circuit (s, a, b, c); input s, a, b; output [1:0] c; assign c = s ? a + b : a - b; endmodule"));
    Alcotest.test_case "round-trip multiplier (multi-bit ports)" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist
             "module mult (A, B, C); input [3:0] A; input [3:0] B; output [7:0] C; assign C = A * B; endmodule"));
    Alcotest.test_case "round-trip with constants" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist
             "module t (a, o); input [2:0] a; output [2:0] o; assign o = a + 3'b101; endmodule"));
    Alcotest.test_case "round-trip constant output" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist
             "module t (a, o); input a; output [1:0] o; assign o = 2'b10; endmodule"));
    Alcotest.test_case "round-trip passthrough" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist "module t (a, o); input [1:0] a; output [1:0] o; assign o = a; endmodule"));
    Alcotest.test_case "sequential netlist round-trips" `Quick (fun () ->
        let src =
          "module c (clk, o); input clk; output [1:0] o; reg [1:0] q; always @(posedge clk) q <= q + 1; assign o = q; endmodule"
        in
        let n = verilog_netlist src in
        let n' = Edif.of_string (Edif.to_string n) in
        Alcotest.(check int) "flip-flops preserved" (Netlist.num_flip_flops n)
          (Netlist.num_flip_flops n');
        let steps = [ [ ("clk", [| false |]) ]; [ ("clk", [| false |]) ]; [ ("clk", [| false |]) ] ] in
        let trace netlist =
          List.map (fun o -> int_of_bits (List.assoc "o" o)) (Sim.run netlist ~inputs:steps)
        in
        Alcotest.(check (list int)) "same trace" (trace n) (trace n'));
    Alcotest.test_case "line_count counts lines" `Quick (fun () ->
        Alcotest.(check int) "3 lines" 3 (Edif.line_count "a\nb\nc\n");
        Alcotest.(check int) "no trailing newline" 2 (Edif.line_count "a\nb"));
    Alcotest.test_case "parse rejects non-EDIF" `Quick (fun () ->
        match Edif.of_string "(not_edif)" with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Alcotest.test_case "paper-style excerpt parses (Figure 3b shape)" `Quick (fun () ->
        (* A handwritten minimal EDIF in the shape of Figure 3(b). *)
        let src =
          {|
(edif top
  (edifVersion 2 0 0)
  (edifLevel 0)
  (keywordMap (keywordLevel 0))
  (library cells (edifLevel 0) (technology (numberDefinition))
    (cell XOR (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port A (direction INPUT))
                   (port B (direction INPUT))
                   (port Y (direction OUTPUT))))))
  (library DESIGN (edifLevel 0) (technology (numberDefinition))
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT))
                   (port b (direction INPUT))
                   (port y (direction OUTPUT)))
        (contents
          (instance id00004 (viewRef netlist (cellRef XOR (libraryRef cells))))
          (net a (joined (portRef A (instanceRef id00004)) (portRef a)))
          (net b (joined (portRef B (instanceRef id00004)) (portRef b)))
          (net y (joined (portRef Y (instanceRef id00004)) (portRef y)))))))
  (design top (cellRef top (libraryRef DESIGN))))
|}
        in
        let n = Edif.of_string src in
        let out a b =
          (List.assoc "y" (Sim.comb n ~inputs:[ ("a", [| a |]); ("b", [| b |]) ])).(0)
        in
        Alcotest.(check bool) "xor tt" true
          (out false false = false && out true false = true && out false true = true
           && out true true = false));
    Alcotest.test_case "techmapped netlist with AOI round-trips" `Quick (fun () ->
        check_roundtrip
          (verilog_netlist
             "module t (a, b, c, d, o); input a, b, c, d; output o; assign o = ~((a & b) | (c & d)); endmodule"));
  ]

(* Property: EDIF round-trips preserve behaviour on random netlists (the
   generator lives in Test_netlist). *)
let property_suite =
  let roundtrip =
    QCheck.Test.make ~name:"EDIF round-trip preserves random netlist behaviour" ~count:40
      (QCheck.make Test_netlist.random_netlist_gen)
      (fun spec ->
         let n = Test_netlist.build_random spec in
         let n' = Edif.of_string (Edif.to_string n) in
         let num_inputs = List.length n.Netlist.inputs in
         List.for_all
           (fun code ->
              let inputs =
                List.mapi
                  (fun i (name, _) -> (name, [| (code lsr i) land 1 = 1 |]))
                  n.Netlist.inputs
              in
              Sim.comb n ~inputs = Sim.comb n' ~inputs)
           (List.init (1 lsl num_inputs) (fun c -> c)))
  in
  [ QCheck_alcotest.to_alcotest roundtrip ]

(* Untrusted EDIF text may fail only with a stage-[edif] [Diag.Error]:
   every strict prefix and every single-byte substitution of a 2-bit AND's
   EDIF either parses or raises that.  The alphabet targets the reader's
   edges (structure, quoting, escapes, comments) and the port-bit syntax. *)
let fuzz_tests =
  let expect_edif_error what src =
    match Edif.of_string src with
    | exception Qac_diag.Diag.Error d ->
      Alcotest.(check string) (what ^ ": stage") "edif" (Qac_diag.Diag.stage d)
    | _ -> Alcotest.failf "%s: parsed" what
  in
  [ Alcotest.test_case "prefixes and byte substitutions raise only Diag.Error" `Quick (fun () ->
        let src =
          Edif.to_string
            (verilog_netlist
               "module t (a, b, y); input [1:0] a, b; output [1:0] y; assign y = a & b; endmodule")
        in
        let alphabet = "\x00 \n()\"\\;[]09-xAY_\xff" in
        let leaks = ref [] in
        let probe s =
          match Edif.of_string s with
          | _ -> ()
          | exception Qac_diag.Diag.Error d when Qac_diag.Diag.stage d = "edif" -> ()
          | exception e -> leaks := (s, Printexc.to_string e) :: !leaks
        in
        for len = 0 to String.length src - 1 do
          probe (String.sub src 0 len)
        done;
        String.iteri
          (fun i _ ->
             String.iter
               (fun c ->
                  let b = Bytes.of_string src in
                  Bytes.set b i c;
                  probe (Bytes.to_string b))
               alphabet)
          src;
        match !leaks with
        | [] -> ()
        | (s, e) :: _ ->
          Alcotest.failf "%d inputs leaked; first %s on:\n%s" (List.length !leaks) e s);
    Alcotest.test_case "huge or sparse port bit indices are refused" `Quick (fun () ->
        let with_port name =
          Printf.sprintf
            "(edif x (library DESIGN (cell c (view v (interface (port (rename p %S) \
             (direction INPUT))) (contents)))))"
            name
        in
        expect_edif_error "max_int" (with_port "a[4611686018427387903]");
        expect_edif_error "a billion" (with_port "a[1000000000]");
        expect_edif_error "sparse" (with_port "a[3]"));
    Alcotest.test_case "duplicate instance names are refused" `Quick (fun () ->
        let inst =
          "(instance ff (viewRef netlist (cellRef DFF_P (libraryRef cells))))"
        in
        expect_edif_error "duplicate"
          (Printf.sprintf
             "(edif x (library DESIGN (cell c (view v (interface (port d (direction INPUT))) \
              (contents %s %s (net d (joined (portRef d) (portRef D (instanceRef ff)))))))))"
             inst inst));
    Alcotest.test_case "a million nested lists are refused at the depth cap" `Quick
      (fun () ->
         let n = 1_000_000 in
         List.iter
           (fun (what, src) ->
              match Edif.of_string src with
              | exception Qac_diag.Diag.Error d ->
                Alcotest.(check string) (what ^ ": stage") "edif" (Qac_diag.Diag.stage d);
                Alcotest.(check string) (what ^ ": message")
                  "malformed s-expression: nesting deeper than 512 at offset 512"
                  (Qac_diag.Diag.message d)
              | _ -> Alcotest.failf "%s: parsed" what)
           [ ("unclosed", String.make n '(');
             ("closed", String.make n '(' ^ String.make n ')') ]) ]

(* [Edif.reread n] must be the netlist the reader returns for [n]'s text,
   and what the compile path emits must match what the text round trip
   would. *)
let reread_tests =
  let reader n = Edif.of_string (Edif.to_string n) in
  let outcome f n =
    match f n with
    | n' -> Ok n'
    | exception Qac_diag.Diag.Error d -> Error (Qac_diag.Diag.to_string d)
  in
  let same_as_reader what n =
    if outcome Edif.reread n <> outcome reader n then Alcotest.failf "%s: reread differs" what
  in
  let random_equation ~name prepare =
    QCheck.Test.make ~name ~count:300 (QCheck.make Test_netlist.random_netlist_gen)
      (fun spec ->
         let n = prepare (Test_netlist.build_random spec) in
         Edif.reread n = reader n)
  in
  let compile_equation =
    QCheck.Test.make ~name:"compile emits the QMASM of the EDIF text round trip" ~count:40
      QCheck.(pair (make Test_verilog.random_module_gen) bool)
      (fun (seed, optimize) ->
         let t = Qac_core.Pipeline.compile ~optimize (Test_verilog.generate_random_module seed) in
         t.Qac_core.Pipeline.qmasm_src = fst (Qac_edif2qmasm.Edif2qmasm.convert (reader t.netlist)))
  in
  let cycle =
    { Netlist.name = "cycle";
      num_nets = 2;
      cells =
        [| { Netlist.kind = Netlist.Not; inputs = [| Netlist.Net 1 |]; out = 0 };
           { Netlist.kind = Netlist.Not; inputs = [| Netlist.Net 0 |]; out = 1 } |];
      inputs = [];
      outputs = [ ("o", [| Netlist.Net 0 |]) ] }
  in
  let line_count_equation =
    QCheck.Test.make ~name:"line count on the tree equals the rendered text's" ~count:300
      QCheck.(pair (make Test_netlist.random_netlist_gen) bool)
      (fun (spec, optimize) ->
         let n = Test_netlist.build_random spec in
         let n = if optimize then Passes.optimize n else n in
         Qac_sexp.Sexp.line_count (Edif.to_sexp n) = Edif.line_count (Edif.to_string n))
  in
  List.map QCheck_alcotest.to_alcotest
    [ random_equation ~name:"reread equals the reader on random netlists" Fun.id;
      random_equation ~name:"reread equals the reader on optimized random netlists"
        Passes.optimize ]
  @ [ Alcotest.test_case "reread equals the reader on a sequential counter" `Quick (fun () ->
        let n =
          verilog_netlist
            "module c (clk, o); input clk; output [1:0] o; reg [1:0] q; \
             always @(posedge clk) q <= q + 1; assign o = q; endmodule"
        in
        Alcotest.(check int) "flip-flops" 2 (Netlist.num_flip_flops n);
        same_as_reader "counter" n);
      Alcotest.test_case "irregular netlists take the reader's own path" `Quick (fun () ->
        (* Bracketed port names merge into one port, or fail its bit check.
           Verilog elaboration refuses such names, so these netlists are
           built directly. *)
        same_as_reader "merged"
          { Netlist.name = "t";
            num_nets = 3;
            cells =
              [| { Netlist.kind = Netlist.And; inputs = [| Netlist.Net 0; Netlist.Net 1 |]; out = 2 } |];
            inputs = [ ("x[1]", [| 0 |]); ("x[0]", [| 1 |]) ];
            outputs = [ ("y", [| Netlist.Net 2 |]) ] };
        same_as_reader "sparse"
          { Netlist.name = "t";
            num_nets = 2;
            cells = [| { Netlist.kind = Netlist.Not; inputs = [| Netlist.Net 0 |]; out = 1 } |];
            inputs = [ ("x[1]", [| 0 |]) ];
            outputs = [ ("y", [| Netlist.Net 1 |]) ] };
        same_as_reader "cycle" cycle;
        same_as_reader "undriven" { cycle with cells = [||] });
      QCheck_alcotest.to_alcotest compile_equation;
      QCheck_alcotest.to_alcotest line_count_equation ]

(* edif2qmasm writes its text and its statements in one walk.  The
   statements must be what the parser reads from the text, and a compile
   that hands them straight to macro expansion must assemble the program
   that loading its text would. *)
let statement_tests =
  let module E2Q = Qac_edif2qmasm.Edif2qmasm in
  let module P = Qac_core.Pipeline in
  let module A = Qac_qmasm.Assemble in
  let module Problem = Qac_ising.Problem in
  let parses_back n =
    let text, stmts = E2Q.convert n in
    stmts = Qac_qmasm.Parser.parse_string text
  in
  let bits = Int64.bits_of_float in
  let same_problem (p : Problem.t) (q : Problem.t) =
    p.Problem.num_vars = q.Problem.num_vars
    && bits p.Problem.offset = bits q.Problem.offset
    && Array.for_all2 (fun a b -> bits a = bits b) p.Problem.h q.Problem.h
    && Array.length p.Problem.couplers = Array.length q.Problem.couplers
    && Array.for_all2
         (fun ((k, v) : (int * int) * float) (k', v') -> k = k' && bits v = bits v')
         p.Problem.couplers q.Problem.couplers
  in
  let same_as_text (t : P.t) =
    let loaded = Qac_qmasm.Qmasm.load ~options:t.P.options ~resolve:E2Q.resolve t.P.qmasm_src in
    parses_back (Edif.reread t.P.netlist)
    && t.P.statements
       = Qac_qmasm.Macro.expand ~resolve:E2Q.resolve (Qac_qmasm.Parser.parse_string t.P.qmasm_src)
    && same_problem t.P.program.A.problem loaded.A.problem
    && t.P.program.A.symbols_of_var = loaded.A.symbols_of_var
    && t.P.program.A.pins = loaded.A.pins
    && t.P.program.A.chains = loaded.A.chains
  in
  let random_equation ~name prepare =
    QCheck.Test.make ~name ~count:300 (QCheck.make Test_netlist.random_netlist_gen)
      (fun spec -> parses_back (prepare (Test_netlist.build_random spec)))
  in
  let compile_equation =
    QCheck.Test.make ~name:"compile assembles the program its QMASM text loads to" ~count:40
      QCheck.(pair (make Test_verilog.random_module_gen) bool)
      (fun (seed, optimize) ->
         same_as_text (P.compile ~optimize (Test_verilog.generate_random_module seed)))
  in
  List.map QCheck_alcotest.to_alcotest
    [ random_equation ~name:"edif2qmasm statements equal the parse of its text" Fun.id;
      random_equation ~name:"edif2qmasm statements equal the parse of its text, optimized"
        Passes.optimize ]
  @ [ Alcotest.test_case "examples compile to the program their QMASM text loads to" `Quick
        (fun () ->
           List.iter
             (fun (name, src, steps) ->
                List.iter
                  (fun optimize ->
                     if not (same_as_text (P.compile ?steps ~optimize src)) then
                       Alcotest.failf "%s (optimize %b): differs from its text" name optimize)
                  [ true; false ])
             Test_golden.corpus);
      QCheck_alcotest.to_alcotest compile_equation ]

let suite = suite @ property_suite @ fuzz_tests @ reread_tests @ statement_tests
