(* Verification of annealer reads: [Pipeline.solution_of_spins] and
   [Qmasm.report] against a by-name reference, and checks that every
   verdict still catches the defect it exists for. *)

module P = Qac_core.Pipeline
module A = Qac_qmasm.Assemble
module Ast = Qac_qmasm.Ast
module E2Q = Qac_edif2qmasm.Edif2qmasm
module Problem = Qac_ising.Problem

let fig2_src =
  "module circuit (s, a, b, c); input s, a, b; output [1:0] c;\n\
   assign c = s ? a + b : a - b; endmodule"

let mult_src w =
  Printf.sprintf
    "module mult (a, b, p); input [%d:0] a; input [%d:0] b; output [%d:0] p;\n\
     assign p = a * b; endmodule"
    (w - 1) (w - 1) ((2 * w) - 1)

let counter_src =
  {|
module count (clk, inc, reset, out);
  input clk, inc, reset;
  output [1:0] out;
  reg [1:0] var;
  always @(posedge clk)
    if (reset) var <= 0;
    else if (inc) var <= var + 1;
  assign out = var;
endmodule
|}

(* --- Reference: every name looked up in the full assignment list ------- *)

let full_assignment (program : A.t) spins =
  Array.to_list program.A.symbols_of_var
  |> List.mapi (fun v syms -> List.map (fun s -> (s, spins.(v) > 0)) syms)
  |> List.concat

let rec ref_aexpr lookup = function
  | Ast.Int v -> v
  | Ast.Sym s -> if lookup s then 1 else 0
  | Ast.Sym_bit (s, i) -> if lookup (Printf.sprintf "%s[%d]" s i) then 1 else 0
  | Ast.Sym_range (s, msb, lsb) ->
    let step = if msb >= lsb then -1 else 1 in
    let v = ref 0 in
    for k = 0 to abs (msb - lsb) do
      let bit = lookup (Printf.sprintf "%s[%d]" s (msb + (k * step))) in
      v := (!v lsl 1) lor if bit then 1 else 0
    done;
    !v
  | Ast.Neg a -> -ref_aexpr lookup a
  | Ast.Bnot a -> lnot (ref_aexpr lookup a)
  | Ast.Lnot b -> if ref_bexpr lookup b then 0 else 1
  | Ast.Arith (op, a, b) ->
    let va = ref_aexpr lookup a and vb = ref_aexpr lookup b in
    (match op with
     | Ast.A_add -> va + vb
     | Ast.A_sub -> va - vb
     | Ast.A_mul -> va * vb
     | Ast.A_div -> va / vb
     | Ast.A_mod -> va mod vb
     | Ast.A_and -> va land vb
     | Ast.A_or -> va lor vb
     | Ast.A_xor -> va lxor vb
     | Ast.A_shl -> va lsl vb
     | Ast.A_shr -> va asr vb)

and ref_bexpr lookup = function
  | Ast.Cmp (op, a, b) ->
    let va = ref_aexpr lookup a and vb = ref_aexpr lookup b in
    (match op with
     | Ast.C_eq -> va = vb
     | Ast.C_ne -> va <> vb
     | Ast.C_lt -> va < vb
     | Ast.C_le -> va <= vb
     | Ast.C_gt -> va > vb
     | Ast.C_ge -> va >= vb)
  | Ast.And (x, y) -> ref_bexpr lookup x && ref_bexpr lookup y
  | Ast.Or (x, y) -> ref_bexpr lookup x || ref_bexpr lookup y

let ref_report (program : A.t) spins =
  let full = full_assignment program spins in
  let lookup name = List.assoc name full in
  ( List.sort compare (List.filter (fun (s, _) -> not (Ast.is_internal_symbol s)) full),
    List.map (fun b -> (b, ref_bexpr lookup b)) program.A.assertions )

let ref_solution (t : P.t) ~(program : A.t) ~num_occurrences ~broken_chains spins =
  let full = full_assignment program spins in
  let visible = List.filter (fun (s, _) -> not (Ast.is_internal_symbol s)) full in
  let lookup name = List.assoc name full in
  let port (name, width) =
    let v = ref 0 in
    for i = 0 to width - 1 do
      if List.assoc_opt (E2Q.port_symbol ~width name i) visible = Some true then
        v := !v lor (1 lsl i)
    done;
    (name, width, !v)
  in
  let netlist = t.P.netlist in
  let ports =
    List.map port
      (List.map (fun (n, a) -> (n, Array.length a)) netlist.Qac_netlist.Netlist.inputs
       @ List.map (fun (n, a) -> (n, Array.length a)) netlist.Qac_netlist.Netlist.outputs)
  in
  let relation =
    List.map
      (fun (name, width, v) -> (name, Array.init width (fun i -> (v lsr i) land 1 = 1)))
      ports
  in
  { P.ports = List.map (fun (name, _, v) -> (name, v)) ports;
    assignment = visible;
    energy = Problem.energy program.A.problem spins;
    num_occurrences;
    valid = Qac_netlist.Sim.check_relation netlist ~assignment:relation;
    assertions_ok = List.for_all (fun b -> ref_bexpr lookup b) program.A.assertions;
    pins_respected = List.for_all (fun (name, v) -> lookup name = v) program.A.pins;
    broken_chains }

(* --- Programs under test, with annealer reads to perturb ---------------- *)

type case = {
  name : string;
  compiled : P.t option;  (** [None] for a standalone QMASM program *)
  program : A.t;
  reads : Problem.spin array array;
}

let sa_reads (program : A.t) =
  let params = { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 16; seed = 7 } in
  let r = Qac_anneal.Sa.sample ~params program.A.problem in
  Array.of_list
    (List.map
       (fun (s : Qac_anneal.Sampler.sample) -> s.Qac_anneal.Sampler.spins)
       r.Qac_anneal.Sampler.samples)

let circuit name ?steps ?(pins = []) src =
  let t = P.compile ?steps src in
  let program = P.assemble_with_pins ~pins t in
  { name; compiled = Some t; program; reads = sa_reads program }

let cases =
  lazy
    (let qmasm =
       let src = In_channel.with_open_bin "../examples/bit_assert.qmasm" In_channel.input_all in
       let program = Qac_qmasm.Qmasm.load src in
       { name = "bit_assert"; compiled = None; program; reads = sa_reads program }
     in
     [ circuit "mult3" ~pins:[ ("p", 15) ] (mult_src 3);
       circuit "mult4" ~pins:[ ("p", 35) ] (mult_src 4);
       circuit "mult5" ~pins:[ ("p", 6) ] (mult_src 5);
       circuit "fig2" ~pins:[ ("s", 1); ("a", 1); ("b", 1) ] fig2_src;
       circuit "counter" ~steps:2 ~pins:[ ("var[0]@init", 0); ("var[1]@init", 0) ] counter_src;
       qmasm ])

(* A read of one program: an annealer read with a few spins flipped, or
   uniformly random spins. *)
let gen_read case =
  let open QCheck.Gen in
  let n = Array.length case.program.A.symbols_of_var in
  let random = array_size (return n) (oneofl [ 1; -1 ]) in
  let perturbed =
    oneofa case.reads >>= fun base ->
    list_size (int_bound 3) (int_bound (n - 1)) >|= fun flips ->
    let s = Array.copy base in
    List.iter (fun i -> s.(i) <- -s.(i)) flips;
    s
  in
  frequency [ (1, random); (3, perturbed) ]

let gen_input =
  QCheck.Gen.(
    oneofl (Lazy.force cases) >>= fun case ->
    gen_read case >>= fun spins ->
    int_range 1 5 >>= fun occ ->
    int_bound 3 >|= fun broken -> (case, spins, occ, broken))

let arb_input =
  QCheck.make gen_input ~print:(fun (case, spins, occ, broken) ->
      Printf.sprintf "%s occ=%d broken=%d spins=%s" case.name occ broken
        (String.concat "" (Array.to_list (Array.map (fun s -> if s > 0 then "+" else "-") spins))))

let matches_reference (case, spins, num_occurrences, broken_chains) =
  let report_ok = Qac_qmasm.Qmasm.report case.program spins = ref_report case.program spins in
  match case.compiled with
  | None -> report_ok
  | Some t ->
    let verify = P.solution_of_spins t ~program:case.program in
    report_ok
    && verify ~num_occurrences ~broken_chains spins
       = ref_solution t ~program:case.program ~num_occurrences ~broken_chains spins

(* --- Verdicts still catch defects ----------------------------------------- *)

let flip spins v =
  let s = Array.copy spins in
  s.(v) <- -s.(v);
  s

let var program name = Option.get (A.variable program name)

(* A read of [case] that passes every check. *)
let fully_valid case =
  let t = Option.get case.compiled in
  let verify = P.solution_of_spins t ~program:case.program in
  match
    List.find_opt
      (fun spins ->
         let s = verify spins in
         s.P.valid && s.P.assertions_ok && s.P.pins_respected)
      (Array.to_list case.reads)
  with
  | Some spins -> (t, spins)
  | None -> Alcotest.failf "%s: no fully valid annealer read" case.name

let case_named name = List.find (fun c -> c.name = name) (Lazy.force cases)

let not_weakened name ~port_bit ~pinned =
  Alcotest.test_case (name ^ ": each check rejects its defect") `Quick (fun () ->
      let case = case_named name in
      let t, spins = fully_valid case in
      let verify = P.solution_of_spins t ~program:case.program in
      let port = verify (flip spins (var case.program port_bit)) in
      Alcotest.(check bool) "flipped port bit is invalid" false port.P.valid;
      (* The output pin of some cell whose variable is not a port: its
         own assertion now fails. *)
      let internal sym = String.contains sym '.' || Ast.is_internal_symbol sym in
      let cell_out =
        List.find
          (fun s ->
             String.ends_with ~suffix:".Y" s
             && List.for_all internal case.program.A.symbols_of_var.(var case.program s))
          (List.concat (Array.to_list case.program.A.symbols_of_var))
      in
      let cell = verify (flip spins (var case.program cell_out)) in
      Alcotest.(check bool)
        ("flipped " ^ cell_out ^ " fails an assertion")
        false cell.P.assertions_ok;
      let pin = verify (flip spins (var case.program pinned)) in
      Alcotest.(check bool) "flipped pin is not respected" false pin.P.pins_respected)

let suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"solution_of_spins and report equal the by-name reference" ~count:300
         arb_input matches_reference);
    not_weakened "fig2" ~port_bit:"c[1]" ~pinned:"s";
    not_weakened "mult3" ~port_bit:"a[0]" ~pinned:"p[3]";
    Alcotest.test_case "variable agrees with a scan of symbols_of_var" `Quick (fun () ->
        List.iter
          (fun case ->
             let program = case.program in
             let check s expected =
               Alcotest.(check (option int)) (case.name ^ " " ^ s) expected (A.variable program s)
             in
             Array.iteri
               (fun v syms -> List.iter (fun s -> check s (Some v)) syms)
               program.A.symbols_of_var;
             check "no.such$symbol" None;
             Alcotest.(check int) "num_symbols"
               (Array.fold_left (fun n syms -> n + List.length syms) 0 program.A.symbols_of_var)
               (A.num_symbols program))
          (Lazy.force cases));
    Alcotest.test_case "every assertion symbol names a variable" `Quick (fun () ->
        List.iter
          (fun case ->
             List.iter
               (fun b ->
                  List.iter
                    (fun s ->
                       Alcotest.(check bool) (case.name ^ " " ^ s) true
                         (A.variable case.program s <> None))
                    (Ast.bexpr_syms b))
               case.program.A.assertions)
          (Lazy.force cases));
    Alcotest.test_case "bit-indexed assertion adds no phantom variable" `Quick (fun () ->
        let program = (case_named "bit_assert").program in
        Alcotest.(check int) "two variables" 2 (Array.length program.A.symbols_of_var);
        Alcotest.(check (option int)) "no base symbol" None (A.variable program "y");
        match program.A.assertions with
        | [ b ] -> Alcotest.(check (list string)) "bit names" [ "y[1]"; "y[0]" ] (Ast.bexpr_syms b)
        | _ -> Alcotest.fail "one assertion");
    Alcotest.test_case "wrong-length spin vector raises Diag.Error" `Quick (fun () ->
        List.iter
          (fun case ->
             let n = Array.length case.program.A.symbols_of_var in
             let raises what f =
               match f () with
               | exception Qac_diag.Diag.Error _ -> ()
               | _ -> Alcotest.failf "%s %s: expected Diag.Error" case.name what
             in
             List.iter
               (fun len ->
                  let spins = Array.make len 1 in
                  raises "report" (fun () -> ignore (Qac_qmasm.Qmasm.report case.program spins));
                  match case.compiled with
                  | Some t ->
                    raises "solution_of_spins" (fun () ->
                        ignore (P.solution_of_spins t ~program:case.program spins))
                  | None -> ())
               [ n - 1; n + 1 ])
          (Lazy.force cases));
  ]
