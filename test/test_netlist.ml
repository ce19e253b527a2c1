open Qac_netlist
module B = Netlist.Builder

let bits_of_int width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bits bits =
  let v = ref 0 in
  Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) bits;
  !v

(* A ripple-carry full adder over [width]-bit inputs, for simulation tests. *)
let build_adder width =
  let b = B.create "adder" in
  let a = B.add_input b "a" width in
  let bb = B.add_input b "b" width in
  let sum = Array.make (width + 1) Netlist.Zero in
  let carry = ref Netlist.Zero in
  for i = 0 to width - 1 do
    let x = a.(i) and y = bb.(i) in
    let s1 = B.xor_ b x y in
    sum.(i) <- B.xor_ b s1 !carry;
    carry := B.or_ b (B.and_ b x y) (B.and_ b s1 !carry)
  done;
  sum.(width) <- !carry;
  B.set_output b "sum" sum;
  B.build b

let builder_tests =
  [ Alcotest.test_case "constant folding" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        Alcotest.(check bool) "and zero" true (B.and_ b x Netlist.Zero = Netlist.Zero);
        Alcotest.(check bool) "and one" true (B.and_ b x Netlist.One = x);
        Alcotest.(check bool) "or one" true (B.or_ b x Netlist.One = Netlist.One);
        Alcotest.(check bool) "xor self" true (B.xor_ b x x = Netlist.Zero);
        Alcotest.(check bool) "idempotent" true (B.and_ b x x = x));
    Alcotest.test_case "double negation folds" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let nx = B.not_ b x in
        Alcotest.(check bool) "not not x = x" true (B.not_ b nx = x));
    Alcotest.test_case "complement detection" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let nx = B.not_ b x in
        Alcotest.(check bool) "x and ~x" true (B.and_ b x nx = Netlist.Zero);
        Alcotest.(check bool) "x or ~x" true (B.or_ b x nx = Netlist.One);
        Alcotest.(check bool) "x xor ~x" true (B.xor_ b x nx = Netlist.One));
    Alcotest.test_case "structural hashing shares cells" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let y = (B.add_input b "y" 1).(0) in
        let g1 = B.and_ b x y in
        let g2 = B.and_ b y x in
        Alcotest.(check bool) "commuted AND shared" true (g1 = g2);
        B.set_output b "o" [| g1 |];
        Alcotest.(check int) "one cell" 1 (Netlist.num_cells (B.build b)));
    Alcotest.test_case "mux simplifications" `Quick (fun () ->
        let b = B.create "t" in
        let s = (B.add_input b "s" 1).(0) in
        let x = (B.add_input b "x" 1).(0) in
        Alcotest.(check bool) "same branches" true (B.mux b ~sel:s ~a:x ~b:x = x);
        Alcotest.(check bool) "0/1 is sel" true
          (B.mux b ~sel:s ~a:Netlist.Zero ~b:Netlist.One = s);
        Alcotest.(check bool) "const sel" true (B.mux b ~sel:Netlist.One ~a:x ~b:s = s));
    Alcotest.test_case "unconnected dff rejected" `Quick (fun () ->
        let b = B.create "t" in
        let q = B.dff_placeholder b ~edge:`Pos in
        B.set_output b "q" [| q |];
        match B.build b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected failure");
  ]

let sim_tests =
  [ Alcotest.test_case "adder simulates correctly (exhaustive 4-bit)" `Quick (fun () ->
        let n = build_adder 4 in
        for a = 0 to 15 do
          for b = 0 to 15 do
            let outs =
              Sim.comb n ~inputs:[ ("a", bits_of_int 4 a); ("b", bits_of_int 4 b) ]
            in
            Alcotest.(check int) "sum" (a + b) (int_of_bits (List.assoc "sum" outs))
          done
        done);
    Alcotest.test_case "check_relation accepts valid, rejects invalid" `Quick (fun () ->
        let n = build_adder 2 in
        let valid =
          [ ("a", bits_of_int 2 3); ("b", bits_of_int 2 2); ("sum", bits_of_int 3 5) ]
        in
        let invalid =
          [ ("a", bits_of_int 2 3); ("b", bits_of_int 2 2); ("sum", bits_of_int 3 4) ]
        in
        Alcotest.(check bool) "valid" true (Sim.check_relation n ~assignment:valid);
        Alcotest.(check bool) "invalid" false (Sim.check_relation n ~assignment:invalid));
    Alcotest.test_case "sequential counter steps" `Quick (fun () ->
        (* 2-bit counter: q <= q + 1 each cycle *)
        let b = B.create "counter" in
        let q0 = B.dff_placeholder b ~edge:`Pos in
        let q1 = B.dff_placeholder b ~edge:`Pos in
        B.connect_dff b ~q:q0 ~d:(B.not_ b q0);
        B.connect_dff b ~q:q1 ~d:(B.xor_ b q1 q0);
        B.set_output b "q" [| q0; q1 |];
        let n = B.build b in
        Alcotest.(check int) "ffs" 2 (Netlist.num_flip_flops n);
        let outs = Sim.run n ~inputs:[ []; []; []; []; [] ] in
        let values = List.map (fun o -> int_of_bits (List.assoc "q" o)) outs in
        Alcotest.(check (list int)) "counting" [ 0; 1; 2; 3; 0 ] values);
  ]

let opt_tests =
  [ Alcotest.test_case "dce removes dead logic" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let y = (B.add_input b "y" 1).(0) in
        let live = B.and_ b x y in
        let _dead = B.raw_cell b Netlist.Xor [| x; y |] in
        let _dead2 = B.raw_cell b Netlist.Or [| _dead; x |] in
        B.set_output b "o" [| live |];
        let n = Passes.dce (B.build b) in
        Alcotest.(check int) "cells" 1 (Netlist.num_cells n));
    Alcotest.test_case "dce keeps feedback flip-flops" `Quick (fun () ->
        let b = B.create "t" in
        let q = B.dff_placeholder b ~edge:`Pos in
        B.connect_dff b ~q ~d:(B.not_ b q);
        B.set_output b "q" [| q |];
        let n = Passes.dce (B.build b) in
        Alcotest.(check int) "ffs" 1 (Netlist.num_flip_flops n);
        Alcotest.(check int) "cells" 2 (Netlist.num_cells n));
    Alcotest.test_case "techmap introduces NAND" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let y = (B.add_input b "y" 1).(0) in
        B.set_output b "o" [| B.not_ b (B.and_ b x y) |];
        let n = Passes.techmap (B.build b) in
        Alcotest.(check int) "one cell" 1 (Netlist.num_cells n);
        Alcotest.(check bool) "is nand" true
          (List.mem_assoc Netlist.Nand (Netlist.cells_by_kind n)));
    Alcotest.test_case "techmap builds AOI4" `Quick (fun () ->
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let y = (B.add_input b "y" 1).(0) in
        let z = (B.add_input b "z" 1).(0) in
        let w = (B.add_input b "w" 1).(0) in
        B.set_output b "o"
          [| B.not_ b (B.or_ b (B.and_ b x y) (B.and_ b z w)) |];
        let n = Passes.techmap (B.build b) in
        Alcotest.(check int) "one cell" 1 (Netlist.num_cells n);
        Alcotest.(check bool) "is aoi4" true
          (List.mem_assoc Netlist.Aoi4 (Netlist.cells_by_kind n)));
    Alcotest.test_case "techmap keeps shared subterms" `Quick (fun () ->
        (* The AND feeds both the NOT and an output: must not be absorbed. *)
        let b = B.create "t" in
        let x = (B.add_input b "x" 1).(0) in
        let y = (B.add_input b "y" 1).(0) in
        let a = B.and_ b x y in
        B.set_output b "o1" [| B.not_ b a |];
        B.set_output b "o2" [| a |];
        let n = Passes.techmap (B.build b) in
        Alcotest.(check int) "two cells" 2 (Netlist.num_cells n));
    Alcotest.test_case "optimize preserves adder behaviour" `Quick (fun () ->
        let n = build_adder 3 in
        let o = Passes.optimize n in
        for a = 0 to 7 do
          for b = 0 to 7 do
            let inputs = [ ("a", bits_of_int 3 a); ("b", bits_of_int 3 b) ] in
            Alcotest.(check int) "sum"
              (int_of_bits (List.assoc "sum" (Sim.comb n ~inputs)))
              (int_of_bits (List.assoc "sum" (Sim.comb o ~inputs)))
          done
        done);
  ]

(* Random DAG netlists for property tests: apply random gates over a pool of
   available signals. *)
let random_netlist_gen =
  QCheck.Gen.(
    let* num_inputs = int_range 2 5 in
    let* num_gates = int_range 1 25 in
    let* choices = list_repeat num_gates (triple (int_bound 6) nat nat) in
    return (num_inputs, choices))

let build_random (num_inputs, choices) =
  let b = B.create "rand" in
  let inputs = Array.init num_inputs (fun i -> (B.add_input b (Printf.sprintf "i%d" i) 1).(0)) in
  let pool = ref (Array.to_list inputs @ [ Netlist.Zero; Netlist.One ]) in
  let pick n = List.nth !pool (n mod List.length !pool) in
  List.iter
    (fun (op, xi, yi) ->
       let x = pick xi and y = pick yi in
       let s =
         match op with
         | 0 -> B.and_ b x y
         | 1 -> B.or_ b x y
         | 2 -> B.xor_ b x y
         | 3 -> B.not_ b x
         | 4 -> B.mux b ~sel:x ~a:y ~b:(pick (xi + yi))
         | 5 -> B.nand_ b x y
         | _ -> B.nor_ b x y
       in
       pool := s :: !pool)
    choices;
  let out = Array.of_list (List.filteri (fun i _ -> i < 4) !pool) in
  B.set_output b "o" out;
  B.build b

let property_tests =
  let optimize_preserves =
    QCheck.Test.make ~name:"optimize preserves random netlist behaviour" ~count:100
      (QCheck.make random_netlist_gen) (fun spec ->
        let n = build_random spec in
        let o = Passes.optimize n in
        let num_inputs = List.length n.Netlist.inputs in
        List.for_all
          (fun code ->
             let inputs =
               List.mapi
                 (fun i (name, _) -> (name, [| (code lsr i) land 1 = 1 |]))
                 n.Netlist.inputs
             in
             Sim.comb n ~inputs = Sim.comb o ~inputs)
          (List.init (1 lsl num_inputs) (fun c -> c)))
  in
  [ QCheck_alcotest.to_alcotest optimize_preserves ]

let unroll_tests =
  [ Alcotest.test_case "unrolled counter matches sequential sim" `Quick (fun () ->
        let b = B.create "counter" in
        let q0 = B.dff_placeholder b ~edge:`Pos in
        let q1 = B.dff_placeholder b ~edge:`Pos in
        B.connect_dff b ~q:q0 ~d:(B.not_ b q0);
        B.connect_dff b ~q:q1 ~d:(B.xor_ b q1 q0);
        B.set_output b "q" [| q0; q1 |];
        let n = B.build b in
        let u = Passes.unroll n ~steps:4 ~ff_names:[| "r0"; "r1" |] in
        Alcotest.(check bool) "combinational" true (Netlist.is_combinational u);
        let inputs =
          [ ("r0@init", [| false |]); ("r1@init", [| false |]) ]
        in
        let outs = Sim.comb u ~inputs in
        let q_at s = int_of_bits (List.assoc (Printf.sprintf "q@%d" s) outs) in
        Alcotest.(check (list int)) "trace" [ 0; 1; 2; 3 ] (List.init 4 q_at);
        Alcotest.(check bool) "final r0" false (List.assoc "r0@final" outs).(0);
        Alcotest.(check bool) "final r1" false (List.assoc "r1@final" outs).(0));
    Alcotest.test_case "unroll keeps per-step inputs independent" `Quick (fun () ->
        (* q <= q xor in *)
        let b = B.create "toggle" in
        let inp = (B.add_input b "in" 1).(0) in
        let q = B.dff_placeholder b ~edge:`Pos in
        B.connect_dff b ~q ~d:(B.xor_ b q inp);
        B.set_output b "q" [| q |];
        let n = B.build b in
        let u = Passes.unroll n ~steps:3 in
        let outs =
          Sim.comb u
            ~inputs:
              [ ("ff0@init", [| false |]);
                ("in@0", [| true |]);
                ("in@1", [| false |]);
                ("in@2", [| true |]) ]
        in
        Alcotest.(check bool) "q@0" false (List.assoc "q@0" outs).(0);
        Alcotest.(check bool) "q@1" true (List.assoc "q@1" outs).(0);
        Alcotest.(check bool) "q@2" true (List.assoc "q@2" outs).(0);
        Alcotest.(check bool) "final" false (List.assoc "ff0@final" outs).(0));
  ]

(* Hash-consing keys a commutative cell by its inputs in [compare]'s order,
   Zero < One < Net 0 < Net 1 < ..., whichever order they are given in. *)
let hashcons_tests =
  [ Alcotest.test_case "commuted inputs hash-cons to one cell in compare order" `Quick
      (fun () ->
         let b = B.create "t" in
         let x = (B.add_input b "x" 1).(0) in
         let y = (B.add_input b "y" 1).(0) in
         let z = (B.add_input b "z" 1).(0) in
         let pairs =
           Netlist.[ (y, x); (x, One); (Zero, y); (One, Zero); (z, x) ]
         in
         let kinds = Netlist.[ And; Or; Nand; Nor; Xor; Xnor ] in
         let outs =
           List.concat_map
             (fun kind ->
                List.map
                  (fun (p, q) ->
                     let s = B.raw_cell b kind [| p; q |] in
                     Alcotest.(check bool) "either order, one cell" true
                       (B.raw_cell b kind [| q; p |] = s);
                     s)
                  pairs)
             kinds
         in
         B.set_output b "o" (Array.of_list outs);
         let n = B.build b in
         Alcotest.(check int) "cells" (List.length kinds * List.length pairs) (Netlist.num_cells n);
         Array.iter
           (fun (c : Netlist.cell) ->
              let sorted = Array.copy c.Netlist.inputs in
              Array.sort compare sorted;
              Alcotest.(check bool) "inputs in compare order" true (sorted = c.Netlist.inputs))
           n.Netlist.cells) ]

let suite = builder_tests @ sim_tests @ opt_tests @ property_tests @ unroll_tests @ hashcons_tests
