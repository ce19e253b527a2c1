(* Untrusted text fails only with [Diag.Error]: every strict prefix and
   every single-byte substitution of the shipped examples either goes
   through its parser or raises that, never another exception.  DIMACS
   goes through [Dimacs.parse], QMASM through the load path [vqa qmasm]
   takes (parse, [!include] resolution, expansion, assembly) and Figure 2's
   Verilog through [Pipeline.compile].  The alphabet targets number syntax,
   bit ranges, statement and assignment syntax, quoting and line
   structure. *)

module Diag = Qac_diag.Diag

let alphabet = "09-[](){};=\"'\n"

let fig2_src =
  "module circuit (s, a, b, c); input s; input a; input b; output [1:0] c;\n\
   assign c = s ? a + b : a - b; endmodule"

(* Applies [f] to every strict prefix of [src], then to [src] with each
   byte replaced by each byte of [alphabet]. *)
let mutants src f =
  for len = 0 to String.length src - 1 do
    f (String.sub src 0 len)
  done;
  String.iteri
    (fun i _ ->
       String.iter
         (fun c ->
            let b = Bytes.of_string src in
            Bytes.set b i c;
            f (Bytes.to_string b))
         alphabet)
    src

let never_leaks name input parse =
  Alcotest.test_case (name ^ ": prefixes and substitutions raise only Diag.Error") `Quick
    (fun () ->
       let src = input () in
       ignore (parse src);
       let parsed = ref 0 and refused = ref 0 and leaks = ref [] in
       mutants src (fun s ->
           match parse s with
           | _ -> incr parsed
           | exception Diag.Error _ -> incr refused
           | exception e -> leaks := (s, Printexc.to_string e) :: !leaks);
       (match !leaks with
        | [] -> ()
        | (s, e) :: _ ->
          Alcotest.failf "%d inputs leaked; first %s on:\n%s" (List.length !leaks) e s);
       (* Both outcomes occur, so the probe reached the parser's checks. *)
       Alcotest.(check bool) "some mutants parse" true (!parsed > 0);
       Alcotest.(check bool) "some mutants are refused" true (!refused > 0))

let load_qmasm src =
  Qac_qmasm.Qmasm.load ~resolve:Qac_edif2qmasm.Edif2qmasm.resolve src

let example name () = In_channel.with_open_bin ("../examples/" ^ name) In_channel.input_all

let suite =
  [ never_leaks "demo.cnf" (example "demo.cnf") Qac_sat.Dimacs.parse;
    never_leaks "demo.wcnf" (example "demo.wcnf") Qac_sat.Dimacs.parse;
    never_leaks "and_gate.qmasm" (example "and_gate.qmasm") load_qmasm;
    never_leaks "bit_assert.qmasm" (example "bit_assert.qmasm") load_qmasm;
    never_leaks "Figure 2 Verilog" (fun () -> fig2_src) Qac_core.Pipeline.compile ]
