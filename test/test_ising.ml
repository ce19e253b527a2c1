open Qac_ising

let spins_of_int n code =
  Array.init n (fun i -> if (code lsr i) land 1 = 1 then 1 else -1)

let triangle =
  (* Frustrated antiferromagnetic triangle: 6 degenerate ground states. *)
  Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
    ~j:[ ((0, 1), 1.0); ((1, 2), 1.0); ((0, 2), 1.0) ]
    ()

let builder_tests =
  [ Alcotest.test_case "builder accumulates coefficients" `Quick (fun () ->
        let b = Problem.Builder.create () in
        Problem.Builder.add_h b 0 1.0;
        Problem.Builder.add_h b 0 0.5;
        Problem.Builder.add_j b 1 0 2.0;
        Problem.Builder.add_j b 0 1 (-1.0);
        let p = Problem.Builder.build b in
        Alcotest.(check int) "vars" 2 p.Problem.num_vars;
        Alcotest.(check (float 1e-9)) "h0" 1.5 p.Problem.h.(0);
        Alcotest.(check (float 1e-9)) "J01" 1.0 (Problem.get_j p 0 1));
    Alcotest.test_case "zero couplers dropped" `Quick (fun () ->
        let b = Problem.Builder.create () in
        Problem.Builder.add_j b 0 1 1.0;
        Problem.Builder.add_j b 0 1 (-1.0);
        let p = Problem.Builder.build b in
        Alcotest.(check int) "couplers" 0 (Problem.num_interactions p));
    Alcotest.test_case "self coupler rejected" `Quick (fun () ->
        let b = Problem.Builder.create () in
        Alcotest.check_raises "self" (Invalid_argument "Builder.add_j: self-coupler")
          (fun () -> Problem.Builder.add_j b 2 2 1.0));
    Alcotest.test_case "add_problem with renaming" `Quick (fun () ->
        let p = triangle in
        let b = Problem.Builder.create () in
        Problem.Builder.add_problem b p ~var_map:[| 5; 3; 1 |];
        let q = Problem.Builder.build b in
        Alcotest.(check int) "vars" 6 q.Problem.num_vars;
        Alcotest.(check (float 1e-9)) "J35" 1.0 (Problem.get_j q 3 5);
        Alcotest.(check (float 1e-9)) "J13" 1.0 (Problem.get_j q 1 3);
        Alcotest.(check (float 1e-9)) "J15" 1.0 (Problem.get_j q 1 5));
  ]

let energy_tests =
  [ Alcotest.test_case "energy of simple chain" `Quick (fun () ->
        (* H = s0 - s1 - s0*s1: table check *)
        let p =
          Problem.create ~num_vars:2 ~h:[| 1.0; -1.0 |] ~j:[ ((0, 1), -1.0) ] ()
        in
        let e a b = Problem.energy p [| a; b |] in
        Alcotest.(check (float 1e-9)) "--" (-1.0 +. 1.0 -. 1.0) (e (-1) (-1));
        Alcotest.(check (float 1e-9)) "-+" (-1.0 -. 1.0 +. 1.0) (e (-1) 1);
        Alcotest.(check (float 1e-9)) "+-" (1.0 +. 1.0 +. 1.0) (e 1 (-1));
        Alcotest.(check (float 1e-9)) "++" (1.0 -. 1.0 -. 1.0) (e 1 1));
    Alcotest.test_case "offset participates in energy" `Quick (fun () ->
        let p = Problem.create ~num_vars:1 ~h:[| 1.0 |] ~j:[] ~offset:10.0 () in
        Alcotest.(check (float 1e-9)) "e" 9.0 (Problem.energy p [| -1 |]));
    Alcotest.test_case "energy_delta matches recomputation" `Quick (fun () ->
        let p =
          Problem.create ~num_vars:4 ~h:[| 0.5; -1.0; 0.25; 2.0 |]
            ~j:[ ((0, 1), -0.5); ((1, 2), 1.5); ((2, 3), -1.0); ((0, 3), 0.75) ]
            ()
        in
        for code = 0 to 15 do
          let sigma = spins_of_int 4 code in
          for i = 0 to 3 do
            let e0 = Problem.energy p sigma in
            let flipped = Array.copy sigma in
            flipped.(i) <- -flipped.(i);
            let expected = Problem.energy p flipped -. e0 in
            Alcotest.(check (float 1e-9)) "delta" expected (Problem.energy_delta p sigma i)
          done
        done);
    Alcotest.test_case "scale preserves argmin and scales energy" `Quick (fun () ->
        let p2 = Problem.scale triangle 2.5 in
        let sigma = [| 1; -1; 1 |] in
        Alcotest.(check (float 1e-9)) "scaled" (2.5 *. Problem.energy triangle sigma)
          (Problem.energy p2 sigma));
    Alcotest.test_case "add sums Hamiltonians" `Quick (fun () ->
        let a = Problem.create ~num_vars:2 ~h:[| 1.0; 0.0 |] ~j:[ ((0, 1), 1.0) ] () in
        let b = Problem.create ~num_vars:3 ~h:[| 0.0; 2.0; -1.0 |] ~j:[ ((0, 1), -1.0) ] () in
        let s = Problem.add a b in
        Alcotest.(check int) "vars" 3 s.Problem.num_vars;
        let sigma = [| 1; 1; -1 |] in
        Alcotest.(check (float 1e-9)) "sum"
          (Problem.energy a [| 1; 1 |] +. Problem.energy b sigma)
          (Problem.energy s sigma));
    Alcotest.test_case "num_terms counts nonzero" `Quick (fun () ->
        let p = Problem.create ~num_vars:3 ~h:[| 1.0; 0.0; 2.0 |] ~j:[ ((0, 2), 1.0) ] () in
        Alcotest.(check int) "terms" 3 (Problem.num_terms p));
  ]

let exact_tests =
  [ Alcotest.test_case "ferromagnetic pair ground states" `Quick (fun () ->
        let p = Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] () in
        let r = Exact.solve p in
        Alcotest.(check (float 1e-9)) "energy" (-1.0) r.Exact.ground_energy;
        Alcotest.(check int) "count" 2 (List.length r.Exact.ground_states);
        Alcotest.(check (float 1e-9)) "gap" 2.0 (Option.get (Exact.gap p)));
    Alcotest.test_case "frustrated triangle has 6 ground states" `Quick (fun () ->
        Alcotest.(check int) "count" 6 (Exact.num_ground_states triangle));
    Alcotest.test_case "pinned variable" `Quick (fun () ->
        (* strong field forces s0 = -1 *)
        let p = Problem.create ~num_vars:2 ~h:[| 5.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] () in
        let r = Exact.solve p in
        List.iter
          (fun sigma -> Alcotest.(check int) "s0" (-1) sigma.(0))
          r.Exact.ground_states);
    Alcotest.test_case "histogram covers all configurations" `Quick (fun () ->
        let hist = Exact.brute_energy_histogram triangle in
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
        Alcotest.(check int) "total" 8 total);
    Alcotest.test_case "is_ground_state" `Quick (fun () ->
        let p = Problem.create ~num_vars:1 ~h:[| 1.0 |] ~j:[] () in
        Alcotest.(check bool) "down" true (Exact.is_ground_state p [| -1 |]);
        Alcotest.(check bool) "up" false (Exact.is_ground_state p [| 1 |]));
    Alcotest.test_case "too large rejected" `Quick (fun () ->
        let p = Problem.create ~num_vars:31 ~h:(Array.make 31 0.0) ~j:[] () in
        match Exact.solve p with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected guard");
  ]

let qubo_tests =
  let qcheck_roundtrip =
    QCheck.Test.make ~name:"qubo/ising round-trip preserves energy" ~count:200
      QCheck.(
        triple (int_bound 4)
          (list_of_size Gen.(return 5) (float_bound_exclusive 4.0))
          (list_of_size Gen.(return 10) (float_bound_exclusive 4.0)))
      (fun (extra, hs, js) ->
         let n = 2 + extra in
         let h = Array.init n (fun i -> try List.nth hs i with _ -> 0.0) in
         let j = ref [] in
         let count = ref 0 in
         for i = 0 to n - 1 do
           for k = i + 1 to n - 1 do
             (match List.nth_opt js !count with
              | Some v -> j := ((i, k), v) :: !j
              | None -> ());
             incr count
           done
         done;
         let p = Problem.create ~num_vars:n ~h ~j:!j ~offset:1.25 () in
         let q = Qubo.of_ising p in
         let p' = Qubo.to_ising q in
         List.for_all
           (fun code ->
              let sigma = spins_of_int n code in
              let x = Qubo.bools_of_spins sigma in
              let e = Problem.energy p sigma in
              Float.abs (e -. Qubo.energy q x) < 1e-7
              && Float.abs (e -. Problem.energy p' sigma) < 1e-7)
           (List.init (1 lsl n) (fun c -> c)))
  in
  [ QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "hand qubo energy" `Quick (fun () ->
        (* E(x) = 3 x0 - 2 x1 + 4 x0 x1 + 1 *)
        let q =
          Qubo.create ~num_vars:2 ~linear:[| 3.0; -2.0 |] ~quadratic:[ ((0, 1), 4.0) ]
            ~offset:1.0 ()
        in
        Alcotest.(check (float 1e-9)) "00" 1.0 (Qubo.energy q [| false; false |]);
        Alcotest.(check (float 1e-9)) "10" 4.0 (Qubo.energy q [| true; false |]);
        Alcotest.(check (float 1e-9)) "01" (-1.0) (Qubo.energy q [| false; true |]);
        Alcotest.(check (float 1e-9)) "11" 6.0 (Qubo.energy q [| true; true |]));
  ]

let scale_tests =
  [ Alcotest.test_case "in-range problem untouched" `Quick (fun () ->
        Alcotest.(check bool) "same" true
          (Problem.equal triangle (Scale.apply Scale.dwave_2000q triangle)));
    Alcotest.test_case "oversized h scaled down" `Quick (fun () ->
        let p = Problem.create ~num_vars:1 ~h:[| 8.0 |] ~j:[] () in
        let s = Scale.apply Scale.dwave_2000q p in
        Alcotest.(check (float 1e-9)) "h" 2.0 s.Problem.h.(0));
    Alcotest.test_case "positive J capped at 1 on dwave range" `Quick (fun () ->
        let p = Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), 4.0) ] () in
        let s = Scale.apply Scale.dwave_2000q p in
        Alcotest.(check (float 1e-9)) "J" 1.0 (Problem.get_j s 0 1);
        Alcotest.(check bool) "fits" true (Scale.fits Scale.dwave_2000q s));
    Alcotest.test_case "negative J capped at -2" `Quick (fun () ->
        let p = Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -8.0) ] () in
        let s = Scale.apply Scale.dwave_2000q p in
        Alcotest.(check (float 1e-9)) "J" (-2.0) (Problem.get_j s 0 1));
    Alcotest.test_case "scaling preserves ground states" `Quick (fun () ->
        let p =
          Problem.create ~num_vars:3 ~h:[| 7.0; -3.0; 0.5 |]
            ~j:[ ((0, 1), 5.0); ((1, 2), -6.0) ]
            ()
        in
        let s = Scale.apply Scale.dwave_2000q p in
        let gp = (Exact.solve p).Exact.ground_states in
        let gs = (Exact.solve s).Exact.ground_states in
        Alcotest.(check bool) "same argmin" true (gp = gs));
    Alcotest.test_case "quantize keeps coarse structure" `Quick (fun () ->
        let p = Problem.create ~num_vars:2 ~h:[| 1.0; -1.0 |] ~j:[ ((0, 1), -1.0) ] () in
        let q = Scale.quantize ~bits:4 p in
        let gp = (Exact.solve p).Exact.ground_states in
        let gq = (Exact.solve q).Exact.ground_states in
        Alcotest.(check bool) "same argmin" true (gp = gq));
  ]

(* A naive reference for [Builder]: association lists keyed by the
   ordered pair, each coefficient summed from 0.0 in the order its terms
   arrive, couplers that sum to 0.0 dropped, and the rest sorted by pair. *)
type term = H of int * float | J of int * int * float | Off of float

let reference_build ~num_vars terms =
  let n =
    List.fold_left
      (fun n -> function H (i, _) -> max n (i + 1) | J (i, j, _) -> max n (max i j + 1) | Off _ -> n)
      num_vars terms
  in
  let h = Array.make n 0.0 and offset = ref 0.0 and quad = ref [] in
  List.iter
    (function
      | H (i, v) -> h.(i) <- h.(i) +. v
      | Off v -> offset := !offset +. v
      | J (i, j, v) ->
        let key = (min i j, max i j) in
        let prev = Option.value (List.assoc_opt key !quad) ~default:0.0 in
        quad := (key, prev +. v) :: List.remove_assoc key !quad)
    terms;
  let couplers =
    List.filter (fun (_, v) -> v <> 0.0) !quad |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (n, !offset, h, couplers)

let bits = Int64.bits_of_float

(* Values whose sums depend on the order of addition, cancel to 0.0, or
   are -0.0. *)
let term_gen ~n =
  let open QCheck.Gen in
  let value = oneofl [ 1.0; -1.0; 0.5; -0.5; 0.1; 0.2; 0.3; 1e16; -1e16; 0.0; -0.0; 3.0 ] in
  let index = oneof [ int_range 0 (n - 1); oneofl [ 0; n - 1 ] ] in
  frequency
    [ (2, map2 (fun i v -> H (i, v)) index value);
      (6,
       map3 (fun i j v -> if i = j then J (i, (i + 1) mod n, v) else J (i, j, v)) index index value);
      (1, map (fun v -> Off v) value) ]

let builder_oracle =
  let gen =
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      pair (int_range 0 n) (list_size (int_range 0 120) (term_gen ~n)))
  in
  QCheck.Test.make ~name:"Builder equals a naive reference, bit for bit" ~count:500
    (QCheck.make gen)
    (fun (num_vars, terms) ->
       let b = Problem.Builder.create ~num_vars () in
       List.iter
         (function
           | H (i, v) -> Problem.Builder.add_h b i v
           | J (i, j, v) -> Problem.Builder.add_j b i j v
           | Off v -> Problem.Builder.add_offset b v)
         terms;
       let p = Problem.Builder.build b in
       let n, offset, h, couplers = reference_build ~num_vars terms in
       let same_couplers c =
         List.length c = Array.length p.Problem.couplers
         && List.for_all2
              (fun (k, v) (k', v') -> k = k' && bits v = bits v')
              c (Array.to_list p.Problem.couplers)
       in
       (* [Problem.create] sums its coupler list the same way. *)
       let created =
         Problem.create ~num_vars:n ~h
           ~j:(List.filter_map (function J (i, j, v) -> Some ((i, j), v) | _ -> None) terms)
           ()
       in
       p.Problem.num_vars = n
       && bits p.Problem.offset = bits offset
       && Array.for_all2 (fun a b -> bits a = bits b) p.Problem.h h
       && same_couplers couplers
       && Array.length created.Problem.couplers = List.length couplers
       && Array.for_all2
            (fun ((k, v) : (int * int) * float) (k', v') -> k = k' && bits v = bits v')
            created.Problem.couplers (Array.of_list couplers))

let packing_tests =
  [ Alcotest.test_case "coupler indices are bounded by the key packing" `Quick (fun () ->
        let m = Problem.max_index in
        (* Packed and unpacked intact: the only complaint is the range. *)
        Alcotest.check_raises "largest packable index"
          (Invalid_argument "Problem.create: coupler index out of range") (fun () ->
              ignore (Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((m, m - 1), 1.0) ] ()));
        Alcotest.check_raises "one past it" (Invalid_argument "Problem: variable index above 2^31 - 1")
          (fun () ->
             ignore (Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, m + 1), 1.0) ] ()));
        Alcotest.check_raises "builder, one past it"
          (Invalid_argument "Builder.add_j: variable index above 2^31 - 1") (fun () ->
              Problem.Builder.add_j (Problem.Builder.create ()) (m + 1) 0 1.0);
        Alcotest.check_raises "builder, max_int" (Invalid_argument "Builder.add_j: variable index above 2^31 - 1")
          (fun () -> Problem.Builder.add_j (Problem.Builder.create ()) 0 max_int 1.0)) ]

let suite = builder_tests @ energy_tests @ exact_tests @ qubo_tests @ scale_tests
  @ packing_tests @ [ QCheck_alcotest.to_alcotest builder_oracle ]
