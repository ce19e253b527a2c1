(** The bit-parallel kernel's lane contract: a packed lane is bit-identical
    to the scalar reference lane with the same derived seed, block width
    never changes a lane's trajectory, golden digests pin whole [Sa.sample]
    responses, and the quantization + threshold rows behave as specified.  Composite post-processors must preserve
    the [Sampler.response] invariants. *)

open Qac_ising
open Qac_anneal

let spin_list a = Array.to_list a

(* Random dense-ish problem, as in the other anneal suites. *)
let random_problem ~seed ~n ~density =
  let rng = Rng.create seed in
  let h = Array.init n (fun _ -> (Rng.float rng *. 2.0) -. 1.0) in
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      if Rng.float rng < density then
        j := ((i, k), (Rng.float rng *. 2.0) -. 1.0) :: !j
    done
  done;
  Problem.create ~num_vars:n ~h ~j:!j ()

(* Spin glass on a family topology (Chimera or Pegasus): the structured
   graphs the kernel actually serves. *)
let family_glass ~pegasus ~size ~seed =
  let module Chimera = Qac_chimera.Chimera in
  let g =
    if pegasus then Qac_chimera.Pegasus.create size else Chimera.create size
  in
  let n = Chimera.num_qubits g in
  let rng = Rng.create seed in
  let h = Array.init n (fun _ -> (Rng.float rng *. 2.0) -. 1.0) in
  let j =
    List.map (fun (a, b) -> ((a, b), (Rng.float rng *. 2.0) -. 1.0)) (Chimera.edges g)
  in
  Problem.create ~num_vars:n ~h ~j ()

let quantize_tests =
  [ Alcotest.test_case "quantized coefficients round within eps/2" `Quick (fun () ->
        for seed = 0 to 10 do
          let p = random_problem ~seed ~n:8 ~density:0.5 in
          let q = Bitpar.quantize p in
          Array.iteri
            (fun i qh ->
               Alcotest.(check bool) "h rounds" true
                 (Float.abs ((float_of_int qh *. q.Bitpar.eps) -. p.Problem.h.(i))
                  <= q.Bitpar.eps /. 2.0 +. 1e-12))
            q.Bitpar.qh;
          Array.iteri
            (fun k qw ->
               Alcotest.(check bool) "weight rounds" true
                 (Float.abs ((float_of_int qw *. q.Bitpar.eps) -. p.Problem.weight.(k))
                  <= q.Bitpar.eps /. 2.0 +. 1e-12))
            q.Bitpar.qweight
        done);
    Alcotest.test_case "max_level bounds every reachable field" `Quick (fun () ->
        for seed = 0 to 10 do
          let p = random_problem ~seed ~n:10 ~density:0.4 in
          let q = Bitpar.quantize p in
          for i = 0 to p.Problem.num_vars - 1 do
            let worst = ref (abs q.Bitpar.qh.(i)) in
            for k = p.Problem.row_start.(i) to p.Problem.row_start.(i + 1) - 1 do
              worst := !worst + abs q.Bitpar.qweight.(k)
            done;
            Alcotest.(check bool) "bounded" true (!worst <= q.Bitpar.max_level)
          done
        done);
    Alcotest.test_case "all-zero problem quantizes safely" `Quick (fun () ->
        let p = Problem.create ~num_vars:4 ~h:(Array.make 4 0.0) ~j:[] () in
        let q = Bitpar.quantize p in
        Alcotest.(check (float 0.0)) "eps" 1.0 q.Bitpar.eps;
        Alcotest.(check bool) "levels" true (q.Bitpar.max_level >= 1));
  ]

(* Row [step], cut at its length. *)
let table_row (a : Schedule.acceptance) step =
  let row = Array.make a.Schedule.width 0 in
  Array.sub row 0 (Schedule.fill_row a ~step row)

let table_tests =
  [ Alcotest.test_case "thresholds decrease in k and match exp" `Quick (fun () ->
        let p = random_problem ~seed:3 ~n:8 ~density:0.5 in
        let s = Schedule.create ~beta_min:0.2 ~beta_max:4.0 p in
        let a = Schedule.acceptance_tables s ~num_steps:10 ~delta_unit:0.5 ~max_level:40 in
        Alcotest.(check int) "one factor per sweep" 10 (Array.length a.Schedule.factors);
        Alcotest.check_raises "short row refused"
          (Invalid_argument "Schedule.fill_row: row too short") (fun () ->
            ignore (Schedule.fill_row a ~step:0 (Array.make 40 0)));
        for step = 0 to 9 do
          let table = table_row a step in
          let beta = Schedule.beta s ~step ~num_steps:10 in
          Alcotest.(check int) "k=0 sentinel" Schedule.acceptance_scale table.(0);
          Alcotest.(check bool) "fits the row" true (Array.length table <= 41);
          for k = 1 to Array.length table - 1 do
            Alcotest.(check bool) "monotone" true (table.(k) <= table.(k - 1));
            let exact =
              exp (-.beta *. 0.5 *. float_of_int k)
              *. float_of_int Schedule.acceptance_scale
            in
            Alcotest.(check bool) "within rounding of exp" true
              (Float.abs (float_of_int table.(k) -. exact) <= 1.0 +. exact *. 1e-9)
          done
        done);
    Alcotest.test_case "colder sweeps have shorter horizons" `Quick (fun () ->
        let p = random_problem ~seed:4 ~n:8 ~density:0.5 in
        let s = Schedule.create ~beta_min:0.1 ~beta_max:50.0 p in
        let a =
          Schedule.acceptance_tables s ~num_steps:20 ~delta_unit:1.0 ~max_level:10_000
        in
        let first = Array.length (table_row a 0) in
        let last = Array.length (table_row a 19) in
        Alcotest.(check bool) "horizon shrinks" true (last < first));
  ]

(* --- Packed vs scalar lane equivalence -------------------------------------- *)

let check_block_equivalence ?beta_max p ~lanes ~block_seed ~num_sweeps =
  let q = Bitpar.quantize p in
  let schedule = Schedule.create ?beta_max p in
  let acceptance = Bitpar.acceptance q schedule ~num_sweeps in
  let r = Bitpar.anneal_block q ~acceptance ~lanes ~block_seed in
  Alcotest.(check bool) "block completed" false r.Bitpar.timed_out;
  Alcotest.(check int) "lane count" lanes (Array.length r.Bitpar.reads);
  let order, lane_seeds =
    Bitpar.block_plan ~num_vars:p.Problem.num_vars ~lanes ~block_seed
  in
  Array.iteri
    (fun l lane_seed ->
       let scalar = Bitpar.anneal_lane q ~acceptance ~order ~lane_seed in
       Alcotest.(check (list int))
         (Printf.sprintf "lane %d bit-identical" l)
         (spin_list scalar)
         (spin_list r.Bitpar.reads.(l)))
    lane_seeds

let equivalence_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20 ~name:"packed lanes == scalar lanes (random problems)"
         QCheck.(pair (int_bound 1000) (int_range 1 64))
         (fun (seed, lanes) ->
            let n = 4 + (seed mod 9) in
            let p = random_problem ~seed ~n ~density:0.5 in
            check_block_equivalence p ~lanes ~block_seed:(seed * 7 + 1) ~num_sweeps:30;
            true));
    Alcotest.test_case "packed lanes == scalar lanes (Chimera glass)" `Quick (fun () ->
        let p = family_glass ~pegasus:false ~size:2 ~seed:11 in
        check_block_equivalence p ~lanes:64 ~block_seed:5 ~num_sweeps:25);
    Alcotest.test_case "packed lanes == scalar lanes (Pegasus glass)" `Quick (fun () ->
        let p = family_glass ~pegasus:true ~size:2 ~seed:12 in
        check_block_equivalence p ~lanes:37 ~block_seed:6 ~num_sweeps:25);
    Alcotest.test_case "packed lanes == scalar lanes (truncated rows)" `Quick (fun () ->
        (* A cold ramp cuts the late rows short, so lanes reach k >= len
           and reject without a draw. *)
        let p = family_glass ~pegasus:false ~size:2 ~seed:14 in
        let q = Bitpar.quantize p in
        List.iter
          (fun beta_max ->
             let a = Bitpar.acceptance q (Schedule.create ~beta_max p) ~num_sweeps:60 in
             Alcotest.(check bool) "last row truncated" true
               (Array.length (table_row a 59) < a.Schedule.width);
             check_block_equivalence ~beta_max p ~lanes:64 ~block_seed:8 ~num_sweeps:60)
          [ 8.0; 20.0; 200.0 ]);
    Alcotest.test_case "packed lanes == scalar lanes (32 and 33 lanes)" `Quick (fun () ->
        let p = family_glass ~pegasus:true ~size:2 ~seed:15 in
        check_block_equivalence p ~lanes:32 ~block_seed:10 ~num_sweeps:25;
        check_block_equivalence p ~lanes:33 ~block_seed:10 ~num_sweeps:25);
    Alcotest.test_case "packed lanes == scalar lanes (zero fields)" `Quick (fun () ->
        (* Every visit has k = 0: each lane flips every variable every sweep. *)
        let p = Problem.create ~num_vars:6 ~h:(Array.make 6 0.0) ~j:[] () in
        check_block_equivalence p ~lanes:64 ~block_seed:11 ~num_sweeps:7);
    Alcotest.test_case "packed lanes == scalar lanes (negative h only)" `Quick (fun () ->
        let rng = Rng.create 16 in
        let h = Array.init 12 (fun _ -> -.(0.1 +. Rng.float rng)) in
        let p = Problem.create ~num_vars:12 ~h ~j:[] () in
        check_block_equivalence p ~lanes:45 ~block_seed:12 ~num_sweeps:20);
    Alcotest.test_case "narrow block is a prefix of a wide block" `Quick (fun () ->
        let p = random_problem ~seed:21 ~n:10 ~density:0.4 in
        let q = Bitpar.quantize p in
        let schedule = Schedule.create p in
        let acceptance = Bitpar.acceptance q schedule ~num_sweeps:40 in
        let wide = Bitpar.anneal_block q ~acceptance ~lanes:64 ~block_seed:9 in
        let narrow = Bitpar.anneal_block q ~acceptance ~lanes:17 ~block_seed:9 in
        Array.iteri
          (fun l spins ->
             Alcotest.(check (list int)) "prefix lane" (spin_list wide.Bitpar.reads.(l))
               (spin_list spins))
          narrow.Bitpar.reads);
    Alcotest.test_case "block anneal is deterministic" `Quick (fun () ->
        let p = family_glass ~pegasus:false ~size:2 ~seed:13 in
        let q = Bitpar.quantize p in
        let schedule = Schedule.create p in
        let acceptance = Bitpar.acceptance q schedule ~num_sweeps:30 in
        let a = Bitpar.anneal_block q ~acceptance ~lanes:64 ~block_seed:3 in
        let b = Bitpar.anneal_block q ~acceptance ~lanes:64 ~block_seed:3 in
        Array.iteri
          (fun l spins ->
             Alcotest.(check (list int)) "same" (spin_list spins)
               (spin_list b.Bitpar.reads.(l)))
          a.Bitpar.reads);
    Alcotest.test_case "expired deadline returns one partial read" `Quick (fun () ->
        let p = random_problem ~seed:22 ~n:10 ~density:0.4 in
        let q = Bitpar.quantize p in
        let schedule = Schedule.create p in
        let acceptance = Bitpar.acceptance q schedule ~num_sweeps:50 in
        let r = Bitpar.anneal_block ~deadline:0.0 q ~acceptance ~lanes:64 ~block_seed:2 in
        Alcotest.(check bool) "flagged" true r.Bitpar.timed_out;
        Alcotest.(check int) "single read" 1 (Array.length r.Bitpar.reads));
  ]

(* --- Golden reads ------------------------------------------------------------ *)

(* Digests of full [Sa.sample] responses, recorded before the packed kernel
   was last rewritten: any change to the reads (spins, energies, counts or
   order) must come with new digests here, on purpose. *)
let response_digest (r : Sampler.response) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d;" r.Sampler.num_reads;
  List.iter
    (fun (s : Sampler.sample) ->
       Array.iter (fun x -> Buffer.add_char b (if x > 0 then '+' else '-')) s.Sampler.spins;
       Printf.bprintf b " %h %d;" s.Sampler.energy s.Sampler.num_occurrences)
    r.Sampler.samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Section 5.3's backward multiplier: [w]-bit factors, product pinned. *)
let pinned_multiplier ~w ~product =
  let module P = Qac_core.Pipeline in
  let src =
    Printf.sprintf
      "module mult (a, b, p); input [%d:0] a; input [%d:0] b; output [%d:0] p;\n\
       assign p = a * b; endmodule"
      (w - 1) (w - 1) ((2 * w) - 1)
  in
  (P.assemble_with_pins ~pins:[ ("p", product) ] (P.compile src)).Qac_qmasm.Assemble.problem

let golden_params = { Sa.default_params with Sa.num_reads = 64; num_sweeps = 100; seed = 42 }

let golden_tests =
  List.map
    (fun (w, product, digest) ->
       Alcotest.test_case (Printf.sprintf "golden reads: %d-bit pinned multiplier" w) `Quick
         (fun () ->
            let p = pinned_multiplier ~w ~product in
            Alcotest.(check string) "digest" digest
              (response_digest (Sa.sample ~params:golden_params p))))
    [ (3, 15, "b302ebc362785a544a76d42dc400b033"); (4, 143, "0a66844a6265d224e2253a026858107c"); (5, 899, "933d2fceaa5e65a2eba5fb8f9a0f7f66") ]
  @ [ Alcotest.test_case "golden reads: 2-thread Pegasus glass" `Quick (fun () ->
        let p = family_glass ~pegasus:true ~size:3 ~seed:17 in
        let params = { golden_params with Sa.num_reads = 128; num_sweeps = 50; seed = 7 } in
        Alcotest.(check string) "digest" "905023fb639b35d3a7b833b7be7bc563"
          (response_digest (Parallel.sample_sa ~num_threads:2 ~params p)));
    ]

(* --- Composite post-processors --------------------------------------------- *)

let sample_response ?(num_reads = 40) ?(num_sweeps = 60) ~seed p =
  Sa.sample
    ~params:{ Sa.default_params with Sa.num_reads; num_sweeps; seed;
              greedy_postprocess = false }
    p

let check_invariants name p (r : Sampler.response) =
  let total =
    List.fold_left (fun acc (s : Sampler.sample) -> acc + s.Sampler.num_occurrences) 0
      r.Sampler.samples
  in
  Alcotest.(check int) (name ^ ": occurrences sum to num_reads") r.Sampler.num_reads
    total;
  let rec sorted = function
    | (a : Sampler.sample) :: (b : Sampler.sample) :: rest ->
      (a.Sampler.energy < b.Sampler.energy
       || (a.Sampler.energy = b.Sampler.energy && a.Sampler.spins <= b.Sampler.spins))
      && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) (name ^ ": sorted and distinct") true (sorted r.Sampler.samples);
  List.iter
    (fun (s : Sampler.sample) ->
       Alcotest.(check (float 1e-9)) (name ^ ": energy matches spins")
         (Problem.energy p s.Sampler.spins) s.Sampler.energy)
    r.Sampler.samples

let composite_tests =
  [ Alcotest.test_case "polish lowers or keeps every energy" `Quick (fun () ->
        for seed = 0 to 4 do
          let p = random_problem ~seed ~n:14 ~density:0.4 in
          let r = sample_response ~seed:(100 + seed) p in
          let polished = Composite.polish p r in
          check_invariants "polish" p polished;
          Alcotest.(check int) "num_reads conserved" r.Sampler.num_reads
            polished.Sampler.num_reads;
          let best l =
            List.fold_left
              (fun acc (s : Sampler.sample) -> Float.min acc s.Sampler.energy)
              infinity l
          in
          Alcotest.(check bool) "best energy no worse" true
            (best polished.Sampler.samples <= best r.Sampler.samples +. 1e-12)
        done);
    Alcotest.test_case "polish under an expired deadline passes through" `Quick
      (fun () ->
         let p = random_problem ~seed:3 ~n:12 ~density:0.4 in
         let r = sample_response ~seed:7 p in
         let passed = Composite.polish ~deadline:0.0 p r in
         Alcotest.(check int) "same reads" r.Sampler.num_reads passed.Sampler.num_reads;
         List.iter2
           (fun (a : Sampler.sample) (b : Sampler.sample) ->
              Alcotest.(check (list int)) "same spins" (spin_list a.Sampler.spins)
                (spin_list b.Sampler.spins))
           r.Sampler.samples passed.Sampler.samples);
    Alcotest.test_case "gauge transform preserves energies exactly" `Quick (fun () ->
        for seed = 0 to 4 do
          let p = random_problem ~seed ~n:14 ~density:0.4 in
          let g, gp = Composite.gauge_transform ~seed:(50 + seed) p in
          let rng = Rng.create (900 + seed) in
          for _ = 1 to 10 do
            let s = Rng.spins rng p.Problem.num_vars in
            let gs = Array.mapi (fun i si -> g.(i) * si) s in
            (* Bit-identical, not approximately equal: every factor is +-1. *)
            Alcotest.(check bool) "E'(s) = E(g.s)" true
              (Problem.energy gp s = Problem.energy p gs)
          done
        done);
    Alcotest.test_case "gauge composite returns valid original-space response" `Quick
      (fun () ->
         let p = random_problem ~seed:9 ~n:14 ~density:0.4 in
         let r =
           Composite.gauge p ~solve:(fun gp -> sample_response ~seed:11 gp)
         in
         check_invariants "gauge" p r;
         Alcotest.(check int) "num_reads conserved" 40 r.Sampler.num_reads);
    Alcotest.test_case "wrap `None is the identity" `Quick (fun () ->
        let p = random_problem ~seed:5 ~n:10 ~density:0.4 in
        let direct = sample_response ~seed:13 p in
        let wrapped =
          Composite.wrap ~postprocess:`None p ~solve:(fun q -> sample_response ~seed:13 q)
        in
        Alcotest.(check bool) "same samples" true
          (direct.Sampler.samples = wrapped.Sampler.samples));
    Alcotest.test_case "wrap `Polish == polish of the base response" `Quick (fun () ->
        let p = random_problem ~seed:6 ~n:12 ~density:0.4 in
        let base = sample_response ~seed:17 p in
        let wrapped =
          Composite.wrap ~postprocess:`Polish p
            ~solve:(fun q -> sample_response ~seed:17 q)
        in
        Alcotest.(check bool) "same samples" true
          ((Composite.polish p base).Sampler.samples = wrapped.Sampler.samples));
  ]

let suite =
  quantize_tests @ table_tests @ equivalence_tests @ golden_tests @ composite_tests
