(** The tiler's contract: disjoint regions (no cross-tile couplers ever),
    and composition invariance — a job's solved response is bit-identical
    whether it is solved alone or packed with any other jobs, at any thread
    count. *)

open Qac_ising
module Chimera = Qac_chimera.Chimera
module Family = Qac_chimera.Family
module Tiler = Qac_embed.Tiler
module Cache = Qac_embed.Cache
module Sampler = Qac_anneal.Sampler
module Sa = Qac_anneal.Sa

(* Fast embedding parameters: these problems are tiny. *)
let params =
  { Tiler.default_params with
    Tiler.embed_params = Some { Qac_embed.Cmr.default_params with tries = 4 } }

(* A deterministic, pure solver closure (fixed seed, small budget). *)
let solver ~deadline p =
  Sa.sample
    ~params:{ Sa.default_params with Sa.num_reads = 6; num_sweeps = 40; seed = 5 }
    ?deadline p

let check_sample (a : Sampler.sample) (b : Sampler.sample) =
  Alcotest.(check (array int)) "spins" a.Sampler.spins b.Sampler.spins;
  Alcotest.(check (float 1e-9)) "energy" a.Sampler.energy b.Sampler.energy;
  Alcotest.(check int) "occurrences" a.Sampler.num_occurrences b.Sampler.num_occurrences

let check_response name (a : Sampler.response) (b : Sampler.response) =
  Alcotest.(check int) (name ^ ": num_reads") a.Sampler.num_reads b.Sampler.num_reads;
  Alcotest.(check int)
    (name ^ ": distinct samples")
    (List.length a.Sampler.samples)
    (List.length b.Sampler.samples);
  List.iter2 check_sample a.Sampler.samples b.Sampler.samples

let placed_exn t i =
  match t.Tiler.outcomes.(i) with
  | Tiler.Placed p -> p
  | Tiler.Deferred -> Alcotest.fail (Printf.sprintf "job %d deferred" i)
  | Tiler.Failed m -> Alcotest.fail (Printf.sprintf "job %d failed: %s" i m)

(* Small pseudo-random problems with varied structure. *)
let chain_problem n =
  Problem.create ~num_vars:n
    ~h:(Array.init n (fun i -> if i mod 2 = 0 then 0.5 else -0.25))
    ~j:(List.init (n - 1) (fun i -> ((i, i + 1), if i mod 3 = 0 then -1.0 else 0.5)))
    ()

let ring_problem n =
  Problem.create ~num_vars:n ~h:(Array.make n 0.1)
    ~j:(List.init n (fun i -> ((min i ((i + 1) mod n), max i ((i + 1) mod n)), 1.0)))
    ()

let dense_problem n =
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      j := ((i, k), if (i + k) mod 2 = 0 then 0.5 else -0.5) :: !j
    done
  done;
  Problem.create ~num_vars:n ~h:(Array.init n (fun i -> float_of_int (i - 1) *. 0.2)) ~j:!j ()

let jobs = [| chain_problem 5; ring_problem 4; dense_problem 4; chain_problem 3 |]

(* Regions are pairwise disjoint, and every placed job's physical problem
   fits its region's local index space (an empty block carries the empty
   problem), so no job's couplers or fields can reach another job's qubits. *)
let check_isolation t =
  let graph = t.Tiler.family.Family.graph in
  let owner = Array.make (Qac_chimera.Topology.num_qubits graph) (-1) in
  Array.iter
    (function
      | Tiler.Placed p ->
        let qubits = p.Tiler.region.Tiler.qubits in
        Array.iter
          (fun q ->
             Alcotest.(check bool) "regions disjoint" true (owner.(q) = -1);
             owner.(q) <- p.Tiler.job)
          qubits;
        Alcotest.(check bool) "physical fits its region" true
          (p.Tiler.physical.Problem.num_vars <= Array.length qubits);
        if p.Tiler.region.Tiler.block = 0 then
          Alcotest.(check bool) "empty block, empty problem" true
            (Problem.equal p.Tiler.physical Problem.empty)
      | Tiler.Deferred | Tiler.Failed _ -> ())
    t.Tiler.outcomes

let tiling_tests =
  [ Alcotest.test_case "all jobs place on C6 with disjoint regions" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 6) in
        let t = Tiler.tile ~params fam jobs in
        let placed, deferred, failed = Tiler.counts t in
        Alcotest.(check int) "all placed" (Array.length jobs) placed;
        Alcotest.(check int) "none deferred" 0 deferred;
        Alcotest.(check int) "none failed" 0 failed;
        check_isolation t;
        Alcotest.(check bool) "occupancy positive" true (Tiler.occupancy t > 0.0);
        Alcotest.(check bool) "occupancy below 1" true (Tiler.occupancy t < 1.0));
    Alcotest.test_case "tiling is identical at 1 and 4 threads" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 6) in
        let t1 = Tiler.tile ~params ~num_threads:1 fam jobs in
        let t4 = Tiler.tile ~params ~num_threads:4 fam jobs in
        Alcotest.(check bool) "outcomes equal" true (t1.Tiler.outcomes = t4.Tiler.outcomes);
        Array.iteri
          (fun i _ ->
             let p1 = placed_exn t1 i and p4 = placed_exn t4 i in
             Alcotest.(check (array int)) "region qubits" p1.Tiler.region.Tiler.qubits
               p4.Tiler.region.Tiler.qubits;
             Alcotest.(check bool) "embedding equal" true
               (p1.Tiler.embedding = p4.Tiler.embedding))
          jobs);
    Alcotest.test_case "broken cells are never used" `Quick (fun () ->
        (* Break one qubit of cell (0,0): the whole cell must leave the pool. *)
        let fam = Family.of_topology (Chimera.create ~broken:[ 3 ] 6) in
        let t = Tiler.tile ~params fam jobs in
        let placed, _, failed = Tiler.counts t in
        Alcotest.(check int) "all placed" (Array.length jobs) placed;
        Alcotest.(check int) "none failed" 0 failed;
        Array.iter
          (function
            | Tiler.Placed p ->
              Array.iter
                (fun q ->
                   Alcotest.(check bool) "qubit outside cell (0,0)" true (q >= 8))
                p.Tiler.region.Tiler.qubits
            | _ -> ())
          t.Tiler.outcomes;
        check_isolation t);
    Alcotest.test_case "too-large problem fails, batch survives" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 2) in
        (* A 40-variable ring cannot fit a C2 (32 qubits). *)
        let t = Tiler.tile ~params fam [| chain_problem 3; ring_problem 40 |] in
        (match t.Tiler.outcomes.(0) with
         | Tiler.Placed _ -> ()
         | _ -> Alcotest.fail "small job should place");
        (match t.Tiler.outcomes.(1) with
         | Tiler.Failed _ -> ()
         | _ -> Alcotest.fail "oversized job should fail"));
    Alcotest.test_case "floor exhaustion defers, never overlaps" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 2) in
        (* Each dense 8-var job needs a whole C2-sized block; the second
           cannot fit alongside. *)
        let big = dense_problem 8 in
        let t = Tiler.tile ~params fam [| big; big; big |] in
        let placed, deferred, failed = Tiler.counts t in
        Alcotest.(check bool) "at least one placed" true (placed >= 1);
        Alcotest.(check int) "none failed" 0 failed;
        Alcotest.(check bool) "rest deferred" true (deferred = 3 - placed);
        check_isolation t);
    Alcotest.test_case "empty problem places trivially" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 2) in
        let t = Tiler.tile ~params fam [| Problem.empty |] in
        let p = placed_exn t 0 in
        Alcotest.(check int) "no qubits" 0 (Array.length p.Tiler.region.Tiler.qubits);
        check_isolation t;
        match Tiler.solve ~solver t with
        | [ (0, r) ] ->
          Alcotest.(check int) "one read" 1 r.Sampler.num_reads
        | _ -> Alcotest.fail "expected one response");
    Alcotest.test_case "embedding cache is shared across identical jobs" `Quick
      (fun () ->
         let fam = Family.of_topology (Chimera.create 6) in
         let cache = Cache.create () in
         let same = chain_problem 5 in
         let t = Tiler.tile ~params ~cache fam [| same; same; same; same |] in
         let placed, _, _ = Tiler.counts t in
         Alcotest.(check int) "all placed" 4 placed;
         let { Cache.hits; misses; _ } = Cache.stats cache in
         Alcotest.(check bool) "cache hits from repeated structure" true (hits >= 3);
         Alcotest.(check bool) "few misses" true (misses <= 4)) ]

let reuse_tests =
  [ Alcotest.test_case "a reused family tiles like freshly built ones" `Quick
      (fun () ->
         (* The family memoizes its local fabrics; sharing them across
            batches must not change any outcome. *)
         List.iter
           (fun graph ->
              let shared = Family.of_topology graph in
              List.iter
                (fun batch ->
                   let reused = Tiler.tile ~params shared batch in
                   let fresh = Tiler.tile ~params (Family.of_topology graph) batch in
                   Alcotest.(check bool) "outcomes bit-identical" true
                     (reused.Tiler.outcomes = fresh.Tiler.outcomes))
                [ jobs; [| dense_problem 4; chain_problem 5 |]; jobs ])
           [ Chimera.create 6; Qac_chimera.Pegasus.create 4 ]) ]

let solve_tests =
  [ Alcotest.test_case "composition invariance: alone vs batched" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 6) in
        let batch = Tiler.tile ~params fam jobs in
        let batched = Tiler.solve ~solver batch in
        Array.iteri
          (fun i p ->
             let alone = Tiler.tile ~params fam [| p |] in
             match (Tiler.solve ~solver alone, List.assoc_opt i batched) with
             | [ (0, ra) ], Some rb ->
               check_response (Printf.sprintf "job %d" i) ra rb
             | _ -> Alcotest.fail "missing response")
          jobs);
    Alcotest.test_case "solve is identical at 1 and 4 threads" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 6) in
        let t = Tiler.tile ~params fam jobs in
        let r1 = Tiler.solve ~num_threads:1 ~solver t in
        let r4 = Tiler.solve ~num_threads:4 ~solver t in
        Alcotest.(check int) "same job set" (List.length r1) (List.length r4);
        List.iter2
          (fun (i1, a) (i4, b) ->
             Alcotest.(check int) "job order" i1 i4;
             check_response (Printf.sprintf "job %d" i1) a b)
          r1 r4);
    Alcotest.test_case "solved samples hit the true ground state" `Quick (fun () ->
        (* A ferromagnetic chain's ground energy is known; the tiled solve
           must find it through embedding + majority vote. *)
        let n = 4 in
        let ferro =
          Problem.create ~num_vars:n ~h:(Array.make n 0.0)
            ~j:(List.init (n - 1) (fun i -> ((i, i + 1), -1.0)))
            ()
        in
        let fam = Family.of_topology (Chimera.create 4) in
        let t = Tiler.tile ~params fam [| ferro |] in
        match Tiler.solve ~solver t with
        | [ (0, r) ] ->
          Alcotest.(check (float 1e-9)) "ground energy"
            (-.float_of_int (n - 1))
            (Sampler.best r).Sampler.energy
        | _ -> Alcotest.fail "expected one response");
    Alcotest.test_case "per-job deadline flags only that job" `Quick (fun () ->
        let fam = Family.of_topology (Chimera.create 6) in
        let t = Tiler.tile ~params fam [| chain_problem 5; chain_problem 4 |] in
        let deadline i = if i = 0 then Some 0.0 else None in
        (match Tiler.solve ~deadline ~solver t with
         | [ (0, r0); (1, r1) ] ->
           Alcotest.(check bool) "job 0 timed out" true r0.Sampler.timed_out;
           Alcotest.(check bool) "job 0 kept partial reads" true
             (r0.Sampler.num_reads >= 1);
           Alcotest.(check bool) "job 1 unaffected" false r1.Sampler.timed_out
         | _ -> Alcotest.fail "expected two responses")) ]

(* QCheck: for random batches of random problems, regions never overlap,
   every job's physical problem stays inside its region, and each job solves
   to exactly the solution set it gets when solved alone. *)
let random_problem =
  QCheck.Gen.(
    sized_size (int_range 1 6) (fun n ->
        let n = max 1 n in
        let* hs = array_size (return n) (float_range (-1.0) 1.0) in
        let* edges =
          flatten_l
            (List.concat
               (List.init n (fun i ->
                    List.init (n - i - 1) (fun k ->
                        let j = i + k + 1 in
                        let* keep = bool in
                        let* w = float_range (-1.0) 1.0 in
                        return (if keep && w <> 0.0 then Some ((i, j), w) else None)))))
        in
        return
          (Problem.create ~num_vars:n ~h:hs ~j:(List.filter_map Fun.id edges) ())))

let arbitrary_batch =
  QCheck.make
    ~print:(fun ps ->
      String.concat "\n---\n" (List.map Problem.to_string ps))
    QCheck.Gen.(list_size (int_range 1 5) random_problem)

let families =
  [ Family.of_topology (Chimera.create 6);
    Family.of_topology (Qac_chimera.Pegasus.create 4) ]

let qcheck_isolation =
  (* Both families: the isolation and invariance contracts are per-family
     obligations of the carving, not Chimera accidents. *)
  QCheck.Test.make ~name:"random batches: isolation + per-job invariance" ~count:15
    arbitrary_batch (fun problems ->
      List.iter
        (fun fam ->
           let batch = Array.of_list problems in
           let t = Tiler.tile ~params fam batch in
           check_isolation t;
           let batched = Tiler.solve ~solver t in
           Array.iteri
             (fun i p ->
                match t.Tiler.outcomes.(i) with
                | Tiler.Placed _ ->
                  let alone = Tiler.tile ~params fam [| p |] in
                  (match (Tiler.solve ~solver alone, List.assoc_opt i batched) with
                   | [ (0, ra) ], Some rb ->
                     check_response (Printf.sprintf "job %d" i) ra rb
                   | _ -> Alcotest.fail "missing response")
                | Tiler.Deferred | Tiler.Failed _ -> ())
             batch)
        families;
      true)

let pegasus_tests =
  let fam = Family.of_topology (Qac_chimera.Pegasus.create 4) in
  [ Alcotest.test_case "all jobs place on P4 with disjoint regions" `Quick (fun () ->
        let t = Tiler.tile ~params fam jobs in
        let placed, deferred, failed = Tiler.counts t in
        Alcotest.(check int) "all placed" (Array.length jobs) placed;
        Alcotest.(check int) "none deferred" 0 deferred;
        Alcotest.(check int) "none failed" 0 failed;
        check_isolation t);
    Alcotest.test_case "composition invariance on Pegasus" `Quick (fun () ->
        let batch = Tiler.tile ~params fam jobs in
        let batched = Tiler.solve ~solver batch in
        Array.iteri
          (fun i p ->
             let alone = Tiler.tile ~params fam [| p |] in
             match (Tiler.solve ~solver alone, List.assoc_opt i batched) with
             | [ (0, ra) ], Some rb -> check_response (Printf.sprintf "job %d" i) ra rb
             | _ -> Alcotest.fail "missing response")
          jobs);
    Alcotest.test_case "Pegasus tiling is identical at 1 and 4 threads" `Quick
      (fun () ->
         let t1 = Tiler.tile ~params ~num_threads:1 fam jobs in
         let t4 = Tiler.tile ~params ~num_threads:4 fam jobs in
         Alcotest.(check bool) "outcomes equal" true (t1.Tiler.outcomes = t4.Tiler.outcomes);
         Array.iteri
           (fun i _ ->
              let p1 = placed_exn t1 i and p4 = placed_exn t4 i in
              Alcotest.(check (array int)) "region qubits" p1.Tiler.region.Tiler.qubits
                p4.Tiler.region.Tiler.qubits)
           jobs);
  ]

let ladder_tests =
  [ Alcotest.test_case "a deferred job's kept ladder places as a fresh tile" `Quick
      (fun () ->
         let fam = Family.of_topology (Chimera.create 2) in
         let jobs = [| dense_problem 8; dense_problem 8; dense_problem 8 |] in
         let ladders = Tiler.ladders ~params fam jobs in
         let first = Tiler.place ~params fam jobs ladders in
         Alcotest.(check bool) "place after ladders is tile" true
           (first.Tiler.outcomes = (Tiler.tile ~params fam jobs).Tiler.outcomes);
         (* The next batch: the deferred jobs bring their ladders back. *)
         let deferred =
           List.filter (fun i -> first.Tiler.outcomes.(i) = Tiler.Deferred) [ 0; 1; 2 ]
           |> Array.of_list
         in
         Alcotest.(check int) "two deferred" 2 (Array.length deferred);
         let pick a = Array.map (fun i -> a.(i)) deferred in
         Alcotest.(check bool) "kept ladders place as fresh ones" true
           ((Tiler.place ~params fam (pick jobs) (pick ladders)).Tiler.outcomes
            = (Tiler.tile ~params fam (pick jobs)).Tiler.outcomes);
         Alcotest.check_raises "one ladder per problem"
           (Invalid_argument "Tiler.place: one ladder per problem") (fun () ->
             ignore (Tiler.place ~params fam jobs (pick ladders)))) ]

(* Appended after every earlier case, so their indices stay put. *)
let fallback_tests =
  [ Alcotest.test_case "ladder falls back to the clique" `Quick (fun () ->
        (* One CMR try with one pass fails both attempts for K8 on the first
           rung (a C2 block), so the ladder must take the clique template
           there.  (The 3-bit equality module is not dense enough: CMR
           embeds it in a single pass.) *)
        let problem = dense_problem 8 in
        let fam = Family.of_topology (Chimera.create 4) in
        let params =
          { Tiler.default_params with
            Tiler.embed_params =
              Some { Qac_embed.Cmr.default_params with tries = 1; max_passes = 1 } }
        in
        match (Tiler.ladders ~params fam [| problem |]).(0) with
        | Ok (block, e) ->
          let local = fam.Family.build_local block in
          Alcotest.(check int) "first rung" 2 block;
          Alcotest.(check bool) "the clique template's embedding" true
            (Qac_embed.Clique.find local problem = Some e);
          Alcotest.(check bool) "a valid minor" true
            (Qac_embed.Embedding.verify local problem e = Ok ())
        | Error m -> Alcotest.fail m) ]

let suite =
  tiling_tests @ solve_tests @ reuse_tests @ ladder_tests @ pegasus_tests
  @ [ QCheck_alcotest.to_alcotest qcheck_isolation ]
  @ fallback_tests
