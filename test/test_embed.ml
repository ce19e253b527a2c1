open Qac_ising
module Chimera = Qac_chimera.Chimera
module Embedding = Qac_embed.Embedding
module Cmr = Qac_embed.Cmr
module Sampler = Qac_anneal.Sampler

let triangle =
  (* The section 4.4 example: H_log over a 3-cycle, which no bipartite
     Chimera subgraph can host directly. *)
  Problem.create ~num_vars:3 ~h:[| 0.5; 0.5; 0.5 |]
    ~j:[ ((0, 1), 1.0); ((1, 2), 1.0); ((0, 2), 1.0) ]
    ()

let find_exn ?params graph p =
  match Cmr.find ?params graph p with
  | Some e -> e
  | None -> Alcotest.fail "no embedding found"

let check_verified graph p e =
  match Embedding.verify graph p e with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Ground-state preservation: unembedding each physical ground state gives a
   logical ground state, and every logical ground state is represented. *)
let check_ground_preservation graph p e =
  let physical = Embedding.apply graph p e in
  let compacted, old_of_new = Embedding.compact physical in
  Alcotest.(check bool) "compact small enough" true
    (compacted.Problem.num_vars <= Exact.max_vars);
  let logical_result = Exact.solve p in
  let physical_result = Exact.solve compacted in
  let to_full spins =
    let full = Array.make physical.Problem.num_vars 1 in
    Array.iteri (fun k old -> full.(old) <- spins.(k)) old_of_new;
    full
  in
  let unembedded =
    List.map
      (fun s ->
         let u = Embedding.unembed e (to_full s) in
         Alcotest.(check int) "no broken chains in ground state" 0 u.Embedding.broken_chains;
         Array.to_list u.Embedding.logical)
      physical_result.Exact.ground_states
    |> List.sort_uniq compare
  in
  let logical_grounds =
    List.map Array.to_list logical_result.Exact.ground_states |> List.sort compare
  in
  Alcotest.(check bool) "ground sets equal" true (unembedded = logical_grounds)

(* Fixture for the shared chain-break step: one 3-qubit chain and one
   singleton, samples tagged with occurrence counts (two clean, one with
   the long chain broken). *)
let chain_embedding = { Embedding.chains = [| [| 0; 1; 2 |]; [| 3 |] |] }

let chain_problem =
  Problem.create ~num_vars:4 ~h:[| 0.0; 0.0; 0.0; 0.5 |]
    ~j:[ ((0, 1), -2.0); ((1, 2), -2.0); ((2, 3), 0.1) ]
    ()

let sample spins num_occurrences = { Sampler.spins; energy = 0.0; num_occurrences }

let mixed_samples =
  [ sample [| 1; 1; 1; -1 |] 3; sample [| 1; -1; 1; -1 |] 2; sample [| -1; -1; -1; 1 |] 4 ]

let embedding_tests =
  [ Alcotest.test_case "triangle embeds into C2 (needs a chain)" `Quick (fun () ->
        let graph = Chimera.create 2 in
        let e = find_exn graph triangle in
        check_verified graph triangle e;
        Alcotest.(check bool) "at least 4 qubits (3-cycle needs a chain)" true
          (Embedding.num_physical_qubits e >= 4);
        check_ground_preservation graph triangle e);
    Alcotest.test_case "section 4.4 hand example is a valid embedding" `Quick (fun () ->
        (* sigma_A -> qubit 0, sigma_C -> qubit 5, sigma_B -> qubits {2, 4}:
           wait, 2 and 4 must be adjacent (they are: K4,4 cell), and the
           couplers (0,4), (0,5), (2,5) must exist. *)
        let graph = Chimera.create 2 in
        let e = { Embedding.chains = [| [| 0 |]; [| 2; 4 |]; [| 5 |] |] } in
        check_verified graph triangle e;
        check_ground_preservation graph triangle e);
    Alcotest.test_case "apply splits coefficients like section 4.4" `Quick (fun () ->
        let graph = Chimera.create 2 in
        let e = { Embedding.chains = [| [| 0 |]; [| 2; 4 |]; [| 5 |] |] } in
        let phys = Embedding.apply graph triangle e ~chain_strength:1.0 in
        (* h_B = 1/2 split over qubits 2 and 4. *)
        Alcotest.(check (float 1e-9)) "h2" 0.25 phys.Problem.h.(2);
        Alcotest.(check (float 1e-9)) "h4" 0.25 phys.Problem.h.(4);
        Alcotest.(check (float 1e-9)) "h0" 0.5 phys.Problem.h.(0);
        (* Chain coupler. *)
        Alcotest.(check (float 1e-9)) "chain J24" (-1.0) (Problem.get_j phys 2 4);
        (* Logical coupler (A,B): edges (0,4) only (0-2 not adjacent? 0 and 2
           are both horizontal partition - not adjacent). *)
        Alcotest.(check (float 1e-9)) "J04" 1.0 (Problem.get_j phys 0 4));
    Alcotest.test_case "K4 embeds into C2" `Quick (fun () ->
        let k4 =
          Problem.create ~num_vars:4 ~h:(Array.make 4 0.1)
            ~j:[ ((0, 1), 1.0); ((0, 2), 1.0); ((0, 3), 1.0);
                 ((1, 2), 1.0); ((1, 3), 1.0); ((2, 3), 1.0) ]
            ()
        in
        let graph = Chimera.create 2 in
        let e = find_exn graph k4 in
        check_verified graph k4 e;
        check_ground_preservation graph k4 e);
    Alcotest.test_case "K6 embeds into C3" `Quick (fun () ->
        let j = ref [] in
        for i = 0 to 5 do
          for k = i + 1 to 5 do
            j := ((i, k), if (i + k) mod 2 = 0 then 1.0 else -1.0) :: !j
          done
        done;
        let k6 = Problem.create ~num_vars:6 ~h:(Array.make 6 0.0) ~j:!j () in
        let graph = Chimera.create 3 in
        let e = find_exn graph k6 in
        check_verified graph k6 e);
    Alcotest.test_case "embedding avoids broken qubits" `Quick (fun () ->
        let graph = Chimera.create 2 ~broken:[ 0; 1; 8 ] in
        let e = find_exn graph triangle in
        check_verified graph triangle e;
        Array.iter
          (fun chain ->
             Array.iter
               (fun q -> Alcotest.(check bool) "working" true (Chimera.is_working graph q))
               chain)
          e.Embedding.chains);
    Alcotest.test_case "verify rejects bad embeddings" `Quick (fun () ->
        let graph = Chimera.create 2 in
        let disconnected = { Embedding.chains = [| [| 0 |]; [| 1 |]; [| 2; 3 |] |] } in
        (match Embedding.verify graph triangle disconnected with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "chain {2,3} is disconnected and 0-1 not adjacent");
        let overlapping = { Embedding.chains = [| [| 0 |]; [| 0 |]; [| 4 |] |] } in
        match Embedding.verify graph triangle overlapping with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "overlap must be rejected");
    Alcotest.test_case "unembed majority vote and broken chains" `Quick (fun () ->
        let e = { Embedding.chains = [| [| 0; 1; 2 |]; [| 3 |] |] } in
        let u = Embedding.unembed e [| 1; 1; -1; -1 |] in
        Alcotest.(check int) "majority" 1 u.Embedding.logical.(0);
        Alcotest.(check int) "one broken" 1 u.Embedding.broken_chains;
        let u2 = Embedding.unembed e [| 1; 1; 1; -1 |] in
        Alcotest.(check int) "intact" 0 u2.Embedding.broken_chains);
    Alcotest.test_case "chain-break polish repairs before voting" `Quick (fun () ->
        let e = { Embedding.chains = [| [| 0; 1; 2 |]; [| 3 |] |] } in
        (* Strong ferromagnetic chain couplers: the greedy repair pulls the
           lone dissenting qubit 2 back to +1 before the vote. *)
        let physical =
          Problem.create ~num_vars:4
            ~h:[| 0.0; 0.0; 0.0; 0.5 |]
            ~j:[ ((0, 1), -2.0); ((1, 2), -2.0); ((2, 3), 0.1) ]
            ()
        in
        let broken_read = [| 1; 1; -1; -1 |] in
        let u =
          Embedding.unembed ~policy:Embedding.Polish ~problem:physical e broken_read
        in
        Alcotest.(check int) "repaired majority" 1 u.Embedding.logical.(0);
        (* The diagnostic still reports the raw read's break. *)
        Alcotest.(check int) "raw break reported" 1 u.Embedding.broken_chains;
        (* Without the physical problem the policy degrades to plain voting. *)
        let v = Embedding.unembed ~policy:Embedding.Polish e broken_read in
        Alcotest.(check bool) "no problem -> vote" true
          (v = Embedding.unembed e broken_read));
    Alcotest.test_case "chain-break discard resolves like vote at unembed level"
      `Quick (fun () ->
        let e = { Embedding.chains = [| [| 0; 1; 2 |]; [| 3 |] |] } in
        let read = [| 1; -1; 1; -1 |] in
        Alcotest.(check bool) "same resolution" true
          (Embedding.unembed ~policy:Embedding.Discard e read
           = Embedding.unembed e read));
    Alcotest.test_case "unembed_reads: discard drops broken reads" `Quick (fun () ->
        let kept =
          Embedding.unembed_reads ~policy:Embedding.Discard ~problem:chain_problem
            chain_embedding mixed_samples
        in
        Alcotest.(check (list (pair (list int) int))) "clean reads only"
          [ ([ 1; -1 ], 3); ([ -1; 1 ], 4) ]
          (List.map
             (fun ((u : Embedding.unembedded), n) -> (Array.to_list u.Embedding.logical, n))
             kept));
    Alcotest.test_case "unembed_reads: discard falls back to voting when all break"
      `Quick (fun () ->
        let all_broken = [ sample [| 1; -1; 1; -1 |] 2; sample [| -1; 1; -1; 1 |] 5 ] in
        Alcotest.(check bool) "same as vote" true
          (Embedding.unembed_reads ~policy:Embedding.Discard ~problem:chain_problem
             chain_embedding all_broken
           = Embedding.unembed_reads ~problem:chain_problem chain_embedding all_broken));
    Alcotest.test_case "unembed_reads: occurrence counts are conserved" `Quick (fun () ->
        let total l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
        List.iter
          (fun policy ->
             let kept =
               Embedding.unembed_reads ~policy ~problem:chain_problem chain_embedding
                 mixed_samples
             in
             Alcotest.(check int) "every read kept" 9 (total kept))
          [ Embedding.Vote; Embedding.Polish ];
        Alcotest.(check int) "discard keeps the clean occurrences" 7
          (total
             (Embedding.unembed_reads ~policy:Embedding.Discard ~problem:chain_problem
                chain_embedding mixed_samples)));
    Alcotest.test_case "unembed_reads: vote and polish match per-read unembed" `Quick
      (fun () ->
         (* Samples over a compacted index space: qubits 4 and 5 are unused
            and must read +1 after expansion. *)
         let padded =
           Problem.create ~num_vars:6 ~h:[| 0.0; 0.0; 0.0; 0.5; 0.0; 0.0 |]
             ~j:[ ((0, 1), -2.0); ((1, 2), -2.0); ((2, 3), 0.1) ]
             ()
         in
         let old_of_new = [| 0; 1; 2; 3 |] in
         let full s = Array.append s.Sampler.spins [| 1; 1 |] in
         List.iter
           (fun (name, policy) ->
              let expected =
                List.map
                  (fun s ->
                     ( Embedding.unembed ~policy ~problem:padded chain_embedding (full s),
                       s.Sampler.num_occurrences ))
                  mixed_samples
              in
              Alcotest.(check bool) name true
                (Embedding.unembed_reads ~policy ~old_of_new ~problem:padded chain_embedding
                   mixed_samples
                 = expected))
           [ ("vote", Embedding.Vote); ("polish", Embedding.Polish) ]);
    Alcotest.test_case "embedder is randomized but deterministic per seed" `Quick
      (fun () ->
         let graph = Chimera.create 3 in
         let e1 = find_exn ~params:{ Cmr.default_params with Cmr.seed = 5 } graph triangle in
         let e2 = find_exn ~params:{ Cmr.default_params with Cmr.seed = 5 } graph triangle in
         Alcotest.(check bool) "same result" true (e1 = e2));
    Alcotest.test_case "compact drops untouched variables" `Quick (fun () ->
        let p =
          Problem.create ~num_vars:10 ~h:(Array.init 10 (fun i -> if i = 3 then 1.0 else 0.0))
            ~j:[ ((3, 7), -1.0) ] ()
        in
        let compacted, old_of_new = Embedding.compact p in
        Alcotest.(check int) "two vars" 2 compacted.Problem.num_vars;
        Alcotest.(check (array int)) "map" [| 3; 7 |] old_of_new);
  ]

let random_problem st =
  let n = 4 + Random.State.int st 5 in
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      if Random.State.int st 3 = 0 then
        j := ((i, k), float_of_int (1 + Random.State.int st 3) /. 2.0) :: !j
    done
  done;
  (* Ensure connectivity-ish: chain all consecutive. *)
  for i = 0 to n - 2 do
    j := ((i, i + 1), -1.0) :: !j
  done;
  Problem.create ~num_vars:n ~h:(Array.make n 0.25) ~j:!j ()

let property_tests =
  let random_embeds =
    QCheck.Test.make ~name:"random sparse graphs embed into C4 and verify" ~count:10
      QCheck.(int_bound 10000)
      (fun seed ->
         let st = Random.State.make [| seed |] in
         let p = random_problem st in
         let graph = Chimera.create 4 in
         match Cmr.find ~params:{ Cmr.default_params with Cmr.seed = seed } graph p with
         | None -> false
         | Some e ->
           (match Embedding.verify graph p e with
            | Ok () -> true
            | Error _ -> false))
  in
  let random_embeds_broken =
    (* Same property on a degraded chip: chains must verify AND avoid every
       broken qubit (verify checks this, but assert it independently too). *)
    QCheck.Test.make
      ~name:"random graphs embed into C4 with broken qubits and verify" ~count:10
      QCheck.(int_bound 10000)
      (fun seed ->
         let st = Random.State.make [| seed + 7919 |] in
         let p = random_problem st in
         let broken =
           List.init (1 + Random.State.int st 6) (fun _ -> Random.State.int st 128)
           |> List.sort_uniq compare
         in
         let graph = Chimera.create 4 ~broken in
         match Cmr.find ~params:{ Cmr.default_params with Cmr.seed = seed } graph p with
         | None -> true (* a degraded chip may genuinely lack room *)
         | Some e ->
           let ok = Embedding.verify graph p e = Ok () in
           let avoids =
             Array.for_all
               (fun chain -> Array.for_all (fun q -> not (List.mem q broken)) chain)
               e.Embedding.chains
           in
           ok && avoids)
  in
  [ QCheck_alcotest.to_alcotest random_embeds;
    QCheck_alcotest.to_alcotest random_embeds_broken ]

let parallel_tests =
  [ Alcotest.test_case "tries are thread-count invariant" `Quick (fun () ->
        (* The contract behind [Cache.key] ignoring [num_threads]: any domain
           count must return the identical embedding. *)
        let st = Random.State.make [| 42 |] in
        let graph = Chimera.create 4 ~broken:[ 3; 77 ] in
        for _ = 1 to 3 do
          let p = random_problem st in
          let find threads =
            Cmr.find
              ~params:{ Cmr.default_params with Cmr.tries = 4; seed = 9; num_threads = threads }
              graph p
          in
          Alcotest.(check bool) "1 thread = 4 threads" true (find 1 = find 4)
        done);
  ]

module Cache = Qac_embed.Cache

let cache_tests =
  let graph = Chimera.create 4 in
  let params = { Cmr.default_params with Cmr.seed = 3 } in
  [ Alcotest.test_case "hit returns the identical embedding" `Quick (fun () ->
        let cache = Cache.create () in
        let p = random_problem (Random.State.make [| 1 |]) in
        let key = Cache.key graph p ~params in
        Alcotest.(check bool) "cold miss" true (Cache.find cache key = None);
        let e = find_exn ~params graph p in
        Cache.add cache key e;
        (match Cache.find cache key with
         | Some e' -> Alcotest.(check bool) "same embedding" true (e = e')
         | None -> Alcotest.fail "expected a hit");
        let st = Cache.stats cache in
        Alcotest.(check int) "one hit" 1 st.Cache.hits;
        Alcotest.(check int) "one miss" 1 st.Cache.misses;
        Alcotest.(check int) "one entry" 1 st.Cache.entries);
    Alcotest.test_case "key reads structure, not coefficients" `Quick (fun () ->
        let p1 =
          Problem.create ~num_vars:3 ~h:[| 0.5; 0.0; -0.5 |]
            ~j:[ ((0, 1), 1.0); ((1, 2), -1.0) ] ()
        in
        let p2 =
          Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
            ~j:[ ((0, 1), 0.25); ((1, 2), 0.75) ] ()
        in
        let p3 =
          Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
            ~j:[ ((0, 1), 0.25); ((0, 2), 0.75) ] ()
        in
        Alcotest.(check bool) "values ignored" true
          (Cache.key graph p1 ~params = Cache.key graph p2 ~params);
        Alcotest.(check bool) "couplers matter" false
          (Cache.key graph p1 ~params = Cache.key graph p3 ~params));
    Alcotest.test_case "key separates topology, params, and broken sets" `Quick
      (fun () ->
         let p = random_problem (Random.State.make [| 2 |]) in
         let k = Cache.key graph p ~params in
         Alcotest.(check bool) "other grid" false
           (k = Cache.key (Chimera.create 8) p ~params);
         Alcotest.(check bool) "broken qubit" false
           (k = Cache.key (Chimera.create 4 ~broken:[ 0 ]) p ~params);
         Alcotest.(check bool) "other seed" false
           (k = Cache.key graph p ~params:{ params with Cmr.seed = 4 });
         Alcotest.(check bool) "num_threads cannot matter" true
           (k = Cache.key graph p ~params:{ params with Cmr.num_threads = 4 }));
    Alcotest.test_case "LRU evicts the coldest entry" `Quick (fun () ->
        let cache = Cache.create ~capacity:2 () in
        let e = { Embedding.chains = [| [| 0 |] |] } in
        let key i =
          Cache.key graph
            (Problem.create ~num_vars:(i + 1) ~h:(Array.make (i + 1) 0.0) ~j:[] ())
            ~params
        in
        Cache.add cache (key 0) e;
        Cache.add cache (key 1) e;
        ignore (Cache.find cache (key 0));  (* refresh 0: now 1 is coldest *)
        Cache.add cache (key 2) e;
        Alcotest.(check int) "capacity" 2 (Cache.stats cache).Cache.entries;
        Alcotest.(check bool) "0 kept" true (Cache.find cache (key 0) <> None);
        Alcotest.(check bool) "1 evicted" true (Cache.find cache (key 1) = None);
        Alcotest.(check bool) "2 kept" true (Cache.find cache (key 2) <> None);
        Alcotest.(check int) "eviction counted" 1 (Cache.stats cache).Cache.evictions);
    Alcotest.test_case "structure_digest tracks the key's problem part" `Quick
      (fun () ->
         let p1 =
           Problem.create ~num_vars:3 ~h:[| 0.5; 0.0; -0.5 |]
             ~j:[ ((0, 1), 1.0); ((1, 2), -1.0) ] ()
         in
         let p2 =
           Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
             ~j:[ ((0, 1), 0.25); ((1, 2), 0.75) ] ()
         in
         let p3 =
           Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
             ~j:[ ((0, 1), 0.25); ((0, 2), 0.75) ] ()
         in
         Alcotest.(check bool) "coefficients ignored" true
           (Cache.structure_digest p1 = Cache.structure_digest p2);
         Alcotest.(check bool) "coupler pairs matter" false
           (Cache.structure_digest p1 = Cache.structure_digest p3);
         (* Same-digest problems must share cache keys on any one graph —
            the property the shard router relies on. *)
         Alcotest.(check bool) "digest equality implies key equality" true
           (Cache.key graph p1 ~params = Cache.key graph p2 ~params));
  ]

let suite = embedding_tests @ property_tests @ parallel_tests @ cache_tests

module Clique = Qac_embed.Clique

let clique_tests =
  [ Alcotest.test_case "clique template: K8 into C4" `Quick (fun () ->
        let j = ref [] in
        for i = 0 to 7 do
          for k = i + 1 to 7 do
            j := ((i, k), 0.5) :: !j
          done
        done;
        let k8 = Problem.create ~num_vars:8 ~h:(Array.make 8 0.1) ~j:!j () in
        let graph = Chimera.create 4 in
        match Clique.find graph k8 with
        | None -> Alcotest.fail "template failed"
        | Some e ->
          check_verified graph k8 e;
          Alcotest.(check bool) "short chains" true (Embedding.max_chain_length e <= 4));
    Alcotest.test_case "clique template: K16 into C4 (full capacity)" `Quick (fun () ->
        let n = 16 in
        let j = ref [] in
        for i = 0 to n - 1 do
          for k = i + 1 to n - 1 do
            j := ((i, k), 0.5) :: !j
          done
        done;
        let kn = Problem.create ~num_vars:n ~h:(Array.make n 0.1) ~j:!j () in
        let graph = Chimera.create 4 in
        match Clique.find graph kn with
        | None -> Alcotest.fail "template failed"
        | Some e -> check_verified graph kn e);
    Alcotest.test_case "oversized clique rejected" `Quick (fun () ->
        Alcotest.(check bool) "none" true (Clique.embed (Chimera.create 2) ~n:9 = None));
    Alcotest.test_case "broken qubit on the template fails cleanly" `Quick (fun () ->
        (* Qubit 0 = row 0, col 0, partition 0, index 0: used by variable 0. *)
        let graph = Chimera.create 4 ~broken:[ 0 ] in
        Alcotest.(check bool) "none" true (Clique.embed graph ~n:4 = None));
    Alcotest.test_case "ground preservation through the template" `Quick (fun () ->
        let k5 =
          Problem.create ~num_vars:5 ~h:[| 0.2; -0.3; 0.1; 0.4; -0.1 |]
            ~j:[ ((0, 1), 1.0); ((0, 2), -0.5); ((1, 3), 0.75); ((2, 4), -1.0);
                 ((3, 4), 0.5); ((0, 4), 0.25) ]
            ()
        in
        let graph = Chimera.create 2 in
        match Clique.find graph k5 with
        | None -> Alcotest.fail "template failed"
        | Some e -> check_ground_preservation graph k5 e);
  ]

module Pegasus = Qac_chimera.Pegasus

let pegasus_clique_tests =
  let k4 =
    Problem.create ~num_vars:4 ~h:(Array.make 4 0.1)
      ~j:[ ((0, 1), 1.0); ((0, 2), 1.0); ((0, 3), 1.0);
           ((1, 2), 1.0); ((1, 3), 1.0); ((2, 3), 1.0) ]
      ()
  in
  [ Alcotest.test_case "Pegasus native K4 uses unit chains" `Quick (fun () ->
        (* The payoff of the odd couplers: K4 without any chaining, where the
           Chimera template needs length-2 chains. *)
        let graph = Pegasus.create 2 in
        match Clique.find graph k4 with
        | None -> Alcotest.fail "native K4 not found on pristine P2"
        | Some e ->
          check_verified graph k4 e;
          Alcotest.(check int) "unit chains" 1 (Embedding.max_chain_length e);
          check_ground_preservation graph k4 e);
    Alcotest.test_case "Pegasus template caps at K4" `Quick (fun () ->
        let graph = Pegasus.create 3 in
        Alcotest.(check bool) "K5 declined" true (Clique.embed graph ~n:5 = None);
        Alcotest.(check bool) "K3 found" true (Clique.embed graph ~n:3 <> None));
    Alcotest.test_case "Pegasus template is total on damaged fabrics" `Quick (fun () ->
        (* Any broken set must yield either None or a verified embedding —
           never an exception (the tiler calls this unguarded). *)
        let n = 24 * 2 * 1 in
        let st = Random.State.make [| 11 |] in
        for _ = 1 to 20 do
          let broken = List.init (Random.State.int st n) (fun _ -> Random.State.int st n) in
          let graph = Pegasus.create ~broken 2 in
          match Clique.find graph k4 with
          | None -> ()
          | Some e -> check_verified graph k4 e
        done);
  ]

let family_key_tests =
  let params = { Cmr.default_params with Cmr.seed = 3 } in
  [ Alcotest.test_case "key separates topology families and geometries" `Quick
      (fun () ->
         (* C2 with shore 6 and P2 both have 48 qubits; only the family
            identity in the key tells them apart. *)
         let p = random_problem (Random.State.make [| 4 |]) in
         let c = Chimera.create ~shore:6 2 and pg = Pegasus.create 2 in
         Alcotest.(check int) "same qubit budget"
           (Qac_chimera.Topology.num_qubits c)
           (Qac_chimera.Topology.num_qubits pg);
         Alcotest.(check bool) "families never collide" false
           (Cache.key c p ~params = Cache.key pg p ~params);
         let victim =
           let q = ref 0 in
           while not (Qac_chimera.Topology.is_working pg !q) do incr q done;
           !q
         in
         Alcotest.(check bool) "broken Pegasus qubit" false
           (Cache.key pg p ~params = Cache.key (Pegasus.create ~broken:[ victim ] 2) p ~params);
         let shifted =
           Pegasus.create
             ~vertical_shifts:Pegasus.default_horizontal_shifts
             ~horizontal_shifts:Pegasus.default_vertical_shifts 2
         in
         (* Same m, same qubit count, different crossing geometry. *)
         Alcotest.(check bool) "shift lists are part of the identity" false
           (Cache.key pg p ~params = Cache.key shifted p ~params));
  ]

let suite = suite @ clique_tests @ pegasus_clique_tests @ family_key_tests

(* --- The bounded router against a full search --------------------------- *)

module Heap = Qac_embed.Heap
module Topology = Qac_chimera.Topology

(* The router as it was before its searches were bounded: one full
   multi-source Dijkstra per neighbor chain, then an ascending scan of
   every working qubit for the lowest score, then the parent walk.  Returns
   [None] where the router raises [Route_failed]; the flag says whether
   another qubit tied the best score. *)
let full_search_route (g : Topology.t) ~cost chains =
  let n = Topology.num_qubits g in
  let search chain =
    let dist = Array.make n infinity and parent = Array.make n (-1) in
    let heap = Heap.create () in
    Heap.ensure heap n;
    Heap.clear heap;
    List.iter
      (fun q ->
         dist.(q) <- 0.0;
         parent.(q) <- -1;
         Heap.push heap 0.0 q)
      chain;
    while not (Heap.is_empty heap) do
      let d = Heap.min_priority heap and q = Heap.min_payload heap in
      Heap.remove_min heap;
      let nd = d +. if parent.(q) < 0 then 0.0 else cost.(q) in
      for e = g.Topology.row_start.(q) to g.Topology.row_start.(q + 1) - 1 do
        let nb = g.Topology.col.(e) in
        if nd < dist.(nb) -. 1e-12 then begin
          dist.(nb) <- nd;
          parent.(nb) <- q;
          Heap.push heap nd nb
        end
      done
    done;
    (dist, parent)
  in
  let searches = Array.map search chains in
  let best_root = ref (-1) and best_score = ref infinity and tied = ref false in
  for q = 0 to n - 1 do
    if g.Topology.working.(q) then begin
      let total = Array.fold_left (fun acc (dist, _) -> acc +. dist.(q)) 0.0 searches in
      if total < infinity then begin
        let score = total +. cost.(q) in
        if score < !best_score then begin
          best_score := score;
          best_root := q;
          tied := false
        end
        else if score = !best_score then tied := true
      end
    end
  done;
  if !best_root < 0 then None
  else begin
    let members = ref [] in
    let add q = if not (List.mem q !members) then members := q :: !members in
    add !best_root;
    Array.iter
      (fun (_, parent) ->
         let rec walk q =
           if parent.(q) >= 0 then begin
             add q;
             walk parent.(q)
           end
         in
         walk !best_root)
      searches;
    Some ((!best_root, !best_score, !members), !tied)
  end

(* A random routing case on a small Chimera or Pegasus graph with random
   broken qubits: 1-6 neighbor chains, each a random connected walk that
   may overlap the others, and integer qubit costs so exact ties occur. *)
let random_route_case seed =
  let st = Random.State.make [| seed; 31 |] in
  let kind = Random.State.int st 5 in
  let build ~broken =
    match kind with
    | 0 -> Chimera.create ~broken 2
    | 1 -> Chimera.create ~broken 3
    | 2 -> Chimera.create ~broken 4
    | 3 -> Qac_chimera.Pegasus.create ~broken 2
    | _ -> Qac_chimera.Pegasus.create ~broken 3
  in
  let whole = build ~broken:[] in
  let n = Topology.num_qubits whole in
  let rate = [| 0.0; 0.05; 0.3 |].(Random.State.int st 3) in
  let broken = List.filter (fun _ -> Random.State.float st 1.0 < rate) (List.init n Fun.id) in
  let g = build ~broken in
  let working = List.filter (Topology.is_working g) (List.init n Fun.id) |> Array.of_list in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let chain () =
    let len = 1 + Random.State.int st 4 in
    let rec grow members =
      if List.length members >= len then members
      else
        let frontier =
          List.concat_map
            (fun q ->
               List.init
                 (g.Topology.row_start.(q + 1) - g.Topology.row_start.(q))
                 (fun e -> g.Topology.col.(g.Topology.row_start.(q) + e)))
            members
          |> List.filter (fun q -> not (List.mem q members))
        in
        if frontier = [] then members else grow (pick (Array.of_list frontier) :: members)
    in
    grow [ pick working ]
  in
  let chains =
    if working = [||] then [||] else Array.init (1 + Random.State.int st 6) (fun _ -> chain ())
  in
  let cost = Array.init n (fun _ -> float_of_int (1 + Random.State.int st 4)) in
  (g, cost, chains)

let router_tests =
  [ Alcotest.test_case "bounded router picks the full search's root, score and chain" `Quick
      (fun () ->
         let ties = ref 0 and on_source = ref 0 and failures = ref 0 and overlaps = ref 0 in
         let agrees seed =
           let g, cost, chains = random_route_case seed in
           chains = [||]
           ||
           let bounded =
             match Cmr.Internal.route g ~cost chains with
             | r -> Some r
             | exception Cmr.Internal.Route_failed -> None
           in
           let full = full_search_route g ~cost chains in
           (match full with
            | None -> incr failures
            | Some ((root, _, _), tied) ->
              if tied then incr ties;
              if Array.exists (List.mem root) chains then incr on_source);
           let all = List.concat (Array.to_list chains) in
           if List.length (List.sort_uniq compare all) < List.length all then incr overlaps;
           bounded = Option.map fst full
         in
         QCheck.Test.check_exn ~rand:(Random.State.make [| 20 |])
           (QCheck.Test.make ~name:"bounded router = full search" ~count:400
              QCheck.(int_bound 1_000_000) agrees);
         (* The cases must reach the rule's edges, or agreement shows little. *)
         List.iter
           (fun (what, count) ->
              if !count = 0 then Alcotest.failf "no case had %s" what)
           [ ("a tied best score", ties); ("a root on a neighbor chain", on_source);
             ("Route_failed", failures); ("overlapping chains", overlaps) ]);
    Alcotest.test_case "non-finite or non-positive alpha is refused" `Quick (fun () ->
        List.iter
          (fun alpha ->
             let params = { Cmr.default_params with Cmr.alpha } in
             match Cmr.find ~params (Chimera.create 2) triangle with
             | exception Invalid_argument _ -> ()
             | _ -> Alcotest.failf "alpha %g accepted" alpha)
          [ nan; infinity; neg_infinity; 0.0; -0.0; -4.0 ]);
    Alcotest.test_case "negative max_passes is refused" `Quick (fun () ->
        let params = { Cmr.default_params with Cmr.max_passes = -1 } in
        match Cmr.find ~params (Chimera.create 2) triangle with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "max_passes -1 accepted") ]

let suite = suite @ router_tests
