open Qac_verilog
module Sim = Qac_netlist.Sim

let bits_of_int width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bits = Verilog.int_of_bits

(* The paper's Figure 2(a). *)
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

(* The paper's Listing 5 (circuit satisfiability, Figure 4). *)
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

(* The paper's Listing 6 (multiplier). *)
let mult_src =
  {|
module mult (A, B, C);
  input [3:0] A;
  input [3:0] B;
  output [7:0] C;
  assign C = A * B;
endmodule
|}

(* The paper's Listing 7 (map of Australia). *)
let australia_src =
  {|
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD && SA != QLD
              && SA != NSW && SA != VIC && QLD != NSW && NSW != VIC && NSW != ACT;
endmodule
|}

(* The paper's Listing 3 (sequential counter). *)
let counter_src =
  {|
module count (clk, inc, reset, out);
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
endmodule
|}

let parser_tests =
  [ Alcotest.test_case "fig2 parses" `Quick (fun () ->
        match Verilog.parse fig2_src with
        | [ m ] ->
          Alcotest.(check string) "name" "circuit" m.Ast.module_name;
          Alcotest.(check (list string)) "ports" [ "s"; "a"; "b"; "c" ] m.Ast.ports
        | _ -> Alcotest.fail "expected one module");
    Alcotest.test_case "numbers" `Quick (fun () ->
        let src = "module t (o); output [31:0] o; assign o = 4'b1010 + 8'hff + 'd7 + 12; endmodule" in
        match Verilog.parse src with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "parse failed");
    Alcotest.test_case "ANSI ports" `Quick (fun () ->
        let src = "module t (input [3:0] a, output [3:0] b); assign b = a; endmodule" in
        let m = Verilog.elaborate src in
        Alcotest.(check int) "ports" 2 (List.length m.Elab.ports));
    Alcotest.test_case "operator precedence" `Quick (fun () ->
        (* 1 + 2 * 3 == 7 must hold *)
        let src = "module t (o); output o; assign o = (1 + 2 * 3) == 7; endmodule" in
        let ev = Verilog.interpreter src in
        Alcotest.(check (list (pair string int))) "out" [ ("o", 1) ]
          (Eval.comb_outputs ev ~inputs:[]));
    Alcotest.test_case "parse error reported with line" `Quick (fun () ->
        match Verilog.parse "module t (a);\n input a;\n garbage !;\nendmodule" with
        | exception Qac_diag.Diag.Error d ->
          let msg = d.Qac_diag.Diag.message in
          Alcotest.(check bool) "mentions line" true
            (String.length msg > 4 && String.sub msg 0 4 = "line")
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "oversized literals are lex errors with the line" `Quick (fun () ->
        List.iter
          (fun literal ->
             let src =
               Printf.sprintf
                 "module t (a, y); input [3:0] a; output [3:0] y;\nassign y = a & %s;\nendmodule"
                 literal
             in
             match Verilog.parse src with
             | exception Qac_diag.Diag.Error d ->
               Alcotest.(check string) "stage" "verilog-lex" d.Qac_diag.Diag.stage;
               Alcotest.(check bool) "names line 2" true
                 (String.length d.Qac_diag.Diag.message > 7
                  && String.sub d.Qac_diag.Diag.message 0 7 = "line 2:")
             | _ -> Alcotest.fail ("expected a lex error for " ^ literal))
          [ "99999999999999999999999999"; "4'd99999999999999999999";
            "64'hFFFF_FFFF_FFFF_FFFF" ]);
    Alcotest.test_case "block comments and directives skipped" `Quick (fun () ->
        let src = "`timescale 1ns/1ps\nmodule t (o); /* multi\nline */ output o; assign o = 1; // eol\nendmodule" in
        match Verilog.parse src with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "parse failed");
  ]

let eval_tests =
  [ Alcotest.test_case "fig2 interpreter: mux of add/sub" `Quick (fun () ->
        let ev = Verilog.interpreter fig2_src in
        let run s a b =
          List.assoc "c" (Eval.comb_outputs ev ~inputs:[ ("s", s); ("a", a); ("b", b) ])
        in
        Alcotest.(check int) "1+1 (s=1)" 2 (run 1 1 1);
        Alcotest.(check int) "1-0 (s=0)" 1 (run 0 1 0);
        Alcotest.(check int) "1-1 (s=0)" 0 (run 0 1 1);
        (* 0 - 1 wraps to 2'b11 = 3 *)
        Alcotest.(check int) "0-1 wraps" 3 (run 0 0 1));
    Alcotest.test_case "circsat evaluates like Figure 4" `Quick (fun () ->
        let ev = Verilog.interpreter circsat_src in
        let y a b c =
          List.assoc "y" (Eval.comb_outputs ev ~inputs:[ ("a", a); ("b", b); ("c", c) ])
        in
        (* The paper states (1,1,0) satisfies the circuit. *)
        Alcotest.(check int) "110 satisfies" 1 (y 1 1 0);
        (* Exhaustive check: exactly the satisfying assignments output 1. *)
        let count = ref 0 in
        for a = 0 to 1 do
          for b = 0 to 1 do
            for c = 0 to 1 do
              if y a b c = 1 then incr count
            done
          done
        done;
        Alcotest.(check int) "exactly one satisfying assignment" 1 !count);
    Alcotest.test_case "multiplier" `Quick (fun () ->
        let ev = Verilog.interpreter mult_src in
        for a = 0 to 15 do
          for b = 0 to 15 do
            Alcotest.(check int) "product" (a * b)
              (List.assoc "C" (Eval.comb_outputs ev ~inputs:[ ("A", a); ("B", b) ]))
          done
        done);
    Alcotest.test_case "australia checker accepts/rejects colorings" `Quick (fun () ->
        let ev = Verilog.interpreter australia_src in
        let valid assignment = List.assoc "valid" (Eval.comb_outputs ev ~inputs:assignment) in
        (* One of the paper's returned colorings:
           ACT=2 NSW=0 NT=1 QLD=3 SA=2 VIC=3 WA=3 *)
        Alcotest.(check int) "paper coloring valid" 1
          (valid
             [ ("ACT", 2); ("NSW", 0); ("NT", 1); ("QLD", 3); ("SA", 2); ("VIC", 3);
               ("WA", 3) ]);
        Alcotest.(check int) "all-same invalid" 0
          (valid
             [ ("ACT", 1); ("NSW", 1); ("NT", 1); ("QLD", 1); ("SA", 1); ("VIC", 1);
               ("WA", 1) ]));
    Alcotest.test_case "counter sequential behaviour (Listing 3)" `Quick (fun () ->
        let ev = Verilog.interpreter counter_src in
        let inputs inc reset = [ ("clk", 0); ("inc", inc); ("reset", reset) ] in
        let outs =
          Eval.run ev
            ~inputs:
              [ inputs 1 0; inputs 1 0; inputs 0 0; inputs 1 0; inputs 1 1; inputs 1 0 ]
        in
        let values = List.map (List.assoc "out") outs in
        (* out reflects the state *before* each edge *)
        Alcotest.(check (list int)) "trace" [ 0; 1; 2; 2; 3; 0 ] values);
    Alcotest.test_case "blocking vs nonblocking in clocked block" `Quick (fun () ->
        let src =
          {|
module t (clk, o1, o2);
  input clk;
  output [3:0] o1, o2;
  reg [3:0] r1, r2;
  always @(posedge clk) begin
    r1 = r1 + 1;
    r2 <= r1;
  end
  assign o1 = r1;
  assign o2 = r2;
endmodule
|}
        in
        let ev = Verilog.interpreter src in
        let outs = Eval.run ev ~inputs:[ [ ("clk", 0) ]; [ ("clk", 0) ] ] in
        (* After one edge: r1=1 (blocking), r2 sees updated r1 = 1. *)
        let second = List.nth outs 1 in
        Alcotest.(check int) "r1" 1 (List.assoc "o1" second);
        Alcotest.(check int) "r2 saw blocking update" 1 (List.assoc "o2" second));
    Alcotest.test_case "combinational always block with case" `Quick (fun () ->
        let src =
          {|
module t (sel, o);
  input [1:0] sel;
  output [3:0] o;
  reg [3:0] o;
  always @* begin
    case (sel)
      0: o = 4'd1;
      1: o = 4'd2;
      2, 3: o = 4'd9;
    endcase
  end
endmodule
|}
        in
        let ev = Verilog.interpreter src in
        let o sel = List.assoc "o" (Eval.comb_outputs ev ~inputs:[ ("sel", sel) ]) in
        Alcotest.(check (list int)) "cases" [ 1; 2; 9; 9 ] (List.map o [ 0; 1; 2; 3 ]));
    Alcotest.test_case "latch detected" `Quick (fun () ->
        let src =
          {|
module t (c, o);
  input c;
  output o;
  reg o;
  always @* if (c) o = 1;
endmodule
|}
        in
        let ev = Verilog.interpreter src in
        match Eval.comb_outputs ev ~inputs:[ ("c", 0) ] with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected latch error");
    Alcotest.test_case "combinational cycle detected" `Quick (fun () ->
        let src = "module t (o); output o; wire w; assign w = ~w; assign o = w; endmodule" in
        let ev = Verilog.interpreter src in
        match Eval.comb_outputs ev ~inputs:[] with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected cycle error");
    Alcotest.test_case "concat and replicate" `Quick (fun () ->
        let src =
          "module t (a, o); input [1:0] a; output [5:0] o; assign o = {a, {2{1'b1}}, a[0]}; endmodule"
        in
        let ev = Verilog.interpreter src in
        (* a=2'b10 -> {10, 11, 0} = 5'b10110 -> 6'b010110 = 22 *)
        Alcotest.(check int) "concat" 22
          (List.assoc "o" (Eval.comb_outputs ev ~inputs:[ ("a", 2) ])));
    Alcotest.test_case "shift operators" `Quick (fun () ->
        let src =
          "module t (a, s, l, r); input [7:0] a; input [2:0] s; output [7:0] l, r; assign l = a << s; assign r = a >> s; endmodule"
        in
        let ev = Verilog.interpreter src in
        let run a s =
          let outs = Eval.comb_outputs ev ~inputs:[ ("a", a); ("s", s) ] in
          (List.assoc "l" outs, List.assoc "r" outs)
        in
        Alcotest.(check (pair int int)) "shift 3" ((0b10110000, 0b00000010)) (run 0b10110 3);
        Alcotest.(check (pair int int)) "shift 0" ((0b10110, 0b10110)) (run 0b10110 0));
    Alcotest.test_case "division and modulo" `Quick (fun () ->
        let src =
          "module t (a, b, q, r); input [7:0] a, b; output [7:0] q, r; assign q = a / b; assign r = a % b; endmodule"
        in
        let ev = Verilog.interpreter src in
        let run a b =
          let outs = Eval.comb_outputs ev ~inputs:[ ("a", a); ("b", b) ] in
          (List.assoc "q" outs, List.assoc "r" outs)
        in
        Alcotest.(check (pair int int)) "17/5" ((3, 2)) (run 17 5);
        Alcotest.(check (pair int int)) "by zero" ((255, 9)) (run 9 0));
  ]

let elab_tests =
  [ Alcotest.test_case "parameters resolve widths" `Quick (fun () ->
        let src =
          "module t (a, o); parameter W = 8; input [W-1:0] a; output [W-1:0] o; assign o = a + 1; endmodule"
        in
        let m = Verilog.elaborate src in
        Alcotest.(check int) "width" 8 (Elab.net_width m "a"));
    Alcotest.test_case "hierarchical flattening" `Quick (fun () ->
        let src =
          {|
module half_add (a, b, s, c);
  input a, b;
  output s, c;
  assign s = a ^ b;
  assign c = a & b;
endmodule

module full_add (a, b, cin, s, cout);
  input a, b, cin;
  output s, cout;
  wire s1, c1, c2;
  half_add h1 (.a(a), .b(b), .s(s1), .c(c1));
  half_add h2 (.a(s1), .b(cin), .s(s), .c(c2));
  assign cout = c1 | c2;
endmodule
|}
        in
        let ev = Verilog.interpreter src in
        for code = 0 to 7 do
          let a = code land 1 and b = (code lsr 1) land 1 and cin = (code lsr 2) land 1 in
          let outs = Eval.comb_outputs ev ~inputs:[ ("a", a); ("b", b); ("cin", cin) ] in
          let total = a + b + cin in
          Alcotest.(check int) "s" (total land 1) (List.assoc "s" outs);
          Alcotest.(check int) "cout" (total lsr 1) (List.assoc "cout" outs)
        done);
    Alcotest.test_case "positional connections and parameter override" `Quick (fun () ->
        let src =
          {|
module add (a, b, o);
  parameter W = 2;
  input [W-1:0] a, b;
  output [W-1:0] o;
  assign o = a + b;
endmodule

module top (x, y, o);
  input [3:0] x, y;
  output [3:0] o;
  add #(.W(4)) u (x, y, o);
endmodule
|}
        in
        let ev = Verilog.interpreter ~top:"top" src in
        Alcotest.(check int) "sum" 11
          (List.assoc "o" (Eval.comb_outputs ev ~inputs:[ ("x", 5); ("y", 6) ])));
    Alcotest.test_case "for loop unrolls" `Quick (fun () ->
        let src =
          {|
module t (a, o);
  input [7:0] a;
  output [7:0] o;
  reg [7:0] o;
  integer i;
  always @* begin
    for (i = 0; i < 8; i = i + 1)
      o[i] = a[7 - i];
  end
endmodule
|}
        in
        let ev = Verilog.interpreter src in
        Alcotest.(check int) "bit reverse" 0b00001101
          (List.assoc "o" (Eval.comb_outputs ev ~inputs:[ ("a", 0b10110000) ])));
    Alcotest.test_case "recursive instantiation rejected" `Quick (fun () ->
        let src = "module t (o); output o; t inner (.o(o)); endmodule" in
        match Verilog.elaborate src with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected recursion error");
    Alcotest.test_case "width limit enforced" `Quick (fun () ->
        let src = "module t (o); output [63:0] o; assign o = 0; endmodule" in
        match Verilog.elaborate src with
        | exception Qac_diag.Diag.Error _ -> ()
        | _ -> Alcotest.fail "expected width error");
    Alcotest.test_case "wire [1:10] ascending range rejected" `Quick (fun () ->
        (* Listing 5 uses wire [1:10]; we require msb >= lsb... except the
           paper's listing!  Accept descending only: [1:10] has msb < lsb. *)
        match Verilog.elaborate "module t (o); output o; wire [1:10] x; assign o = x[1]; endmodule" with
        | exception Qac_diag.Diag.Error _ -> Alcotest.fail "ascending [1:10] must be supported (Listing 5)"
        | _ -> ());
  ]

(* Differential testing: the synthesized netlist must agree with the
   interpreter on every module and input. *)
let check_equivalence ?(inputs_per_module = 64) src =
  let m = Verilog.elaborate src in
  let ev = Eval.create m in
  let result = Synth.synthesize m in
  let n = result.Synth.netlist in
  let input_ports =
    List.filter_map
      (fun (name, dir, w) -> if dir = Ast.Input then Some (name, w) else None)
      m.Elab.ports
  in
  let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 input_ports in
  let cases =
    if total_bits <= 10 then List.init (1 lsl total_bits) (fun c -> c)
    else
      let st = Random.State.make [| Hashtbl.hash src |] in
      List.init inputs_per_module (fun _ -> Random.State.int st (1 lsl (min total_bits 30)))
  in
  List.iter
    (fun code ->
       let _, assignment =
         List.fold_left
           (fun (shift, acc) (name, w) ->
              (shift + w, (name, (code lsr shift) land ((1 lsl w) - 1)) :: acc))
           (0, []) input_ports
       in
       let expected = Eval.comb_outputs ev ~inputs:assignment in
       let got =
         Sim.comb n
           ~inputs:(List.map (fun (name, v) -> (name, bits_of_int (Eval.width ev name) v)) assignment)
       in
       List.iter
         (fun (name, v) ->
            Alcotest.(check int)
              (Printf.sprintf "%s (inputs %d)" name code)
              v
              (int_of_bits (List.assoc name got)))
         expected)
    cases

let synth_tests =
  [ Alcotest.test_case "fig2 synthesizes and matches interpreter" `Quick (fun () ->
        check_equivalence fig2_src);
    Alcotest.test_case "circsat synthesizes and matches" `Quick (fun () ->
        check_equivalence circsat_src);
    Alcotest.test_case "multiplier synthesizes and matches" `Quick (fun () ->
        check_equivalence mult_src);
    Alcotest.test_case "australia synthesizes and matches" `Quick (fun () ->
        check_equivalence australia_src);
    Alcotest.test_case "division synthesizes and matches" `Quick (fun () ->
        check_equivalence
          "module t (a, b, q, r); input [3:0] a, b; output [3:0] q, r; assign q = a / b; assign r = a % b; endmodule");
    Alcotest.test_case "shifts synthesize and match" `Quick (fun () ->
        check_equivalence
          "module t (a, s, l, r); input [3:0] a; input [1:0] s; output [3:0] l, r; assign l = a << s; assign r = a >> s; endmodule");
    Alcotest.test_case "comparisons synthesize and match" `Quick (fun () ->
        check_equivalence
          "module t (a, b, o); input [2:0] a, b; output [5:0] o; assign o = {a < b, a <= b, a > b, a >= b, a == b, a != b}; endmodule");
    Alcotest.test_case "ternary and logical ops match" `Quick (fun () ->
        check_equivalence
          "module t (a, b, c, o); input [1:0] a, b; input c; output [1:0] o; assign o = c && (a || b) ? a : ~b; endmodule");
    Alcotest.test_case "reductions match" `Quick (fun () ->
        check_equivalence
          "module t (a, o); input [3:0] a; output [5:0] o; assign o = {&a, |a, ^a, ~&a, ~|a, ~^a}; endmodule");
    Alcotest.test_case "counter synthesizes: sequential equivalence" `Quick (fun () ->
        let m = Verilog.elaborate counter_src in
        let ev = Eval.create m in
        let result = Synth.synthesize m in
        let n = result.Synth.netlist in
        Alcotest.(check int) "6 flip-flops" 6 (Qac_netlist.Netlist.num_flip_flops n);
        (* Drive both with the same random input sequence. *)
        let st = Random.State.make [| 7 |] in
        let seq =
          List.init 20 (fun _ -> (Random.State.int st 2, Random.State.int st 4 = 0))
        in
        let ev_outs =
          Eval.run ev
            ~inputs:
              (List.map
                 (fun (inc, reset) ->
                    [ ("clk", 0); ("inc", inc); ("reset", if reset then 1 else 0) ])
                 seq)
        in
        let sim_outs =
          Sim.run n
            ~inputs:
              (List.map
                 (fun (inc, reset) ->
                    [ ("clk", [| false |]);
                      ("inc", [| inc = 1 |]);
                      ("reset", [| reset |]) ])
                 seq)
        in
        List.iter2
          (fun e s ->
             Alcotest.(check int) "out" (List.assoc "out" e)
               (int_of_bits (List.assoc "out" s)))
          ev_outs sim_outs);
  ]

(* Random Verilog expression programs for property-based equivalence. *)
let random_module_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    return seed)

let generate_random_module seed =
  let st = Random.State.make [| seed |] in
  let widths = [ 1; 2; 3; 4 ] in
  let w_in = List.nth widths (Random.State.int st 4) in
  let num_ops = 1 + Random.State.int st 8 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "module r (a, b, o);\n";
  Buffer.add_string buf (Printf.sprintf "  input [%d:0] a, b;\n" (w_in - 1));
  Buffer.add_string buf (Printf.sprintf "  output [%d:0] o;\n" (w_in - 1));
  let terms = ref [ "a"; "b" ] in
  for i = 0 to num_ops - 1 do
    let pick () = List.nth !terms (Random.State.int st (List.length !terms)) in
    let ops = [| "+"; "-"; "*"; "&"; "|"; "^"; "<<"; ">>" |] in
    let op = ops.(Random.State.int st (Array.length ops)) in
    let name = Printf.sprintf "w%d" i in
    Buffer.add_string buf
      (Printf.sprintf "  wire [%d:0] %s;\n  assign %s = %s %s %s;\n" (w_in - 1) name name
         (pick ()) op (pick ()));
    terms := name :: !terms
  done;
  Buffer.add_string buf
    (Printf.sprintf "  assign o = %s;\n" (List.hd !terms));
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let property_tests =
  let equivalence =
    QCheck.Test.make ~name:"random Verilog: synth matches interpreter" ~count:60
      (QCheck.make random_module_gen) (fun seed ->
        let src = generate_random_module seed in
        check_equivalence ~inputs_per_module:16 src;
        true)
  in
  [ QCheck_alcotest.to_alcotest equivalence ]

let suite = parser_tests @ eval_tests @ elab_tests @ synth_tests @ property_tests
