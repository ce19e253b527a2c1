(** The SAT frontend: DIMACS parsing diagnostics, the compiler's exact
    energy == violation-cost contract (checked against brute force and the
    exact sampler), clause chaining, the MaxSAT weight-spread guard, qbsolv
    decomposition of over-chip-size formulas, and the serving tier's SAT
    job path (demux, structure-digest sharing, wire protocol). *)

module Dimacs = Qac_sat.Dimacs
module Compile = Qac_sat.Compile
module Problem = Qac_ising.Problem
module Scale = Qac_ising.Scale
module Exact = Qac_ising.Exact
module Gen = Qac_cellgen.Gen
module Qbsolv = Qac_anneal.Qbsolv
module Sampler = Qac_anneal.Sampler
module Sa = Qac_anneal.Sa
module Chimera = Qac_chimera.Chimera
module Tiler = Qac_embed.Tiler
module Cache = Qac_embed.Cache
module Serve = Qac_serve.Serve
module Shard = Qac_serve.Shard
module Server = Qac_serve.Server
module Protocol = Qac_serve.Protocol
module Diag = Qac_diag.Diag
module P = Qac_core.Pipeline
module Embedding = Qac_embed.Embedding

(* --- helpers ------------------------------------------------------------- *)

let expect_error ~stage ?line f =
  match f () with
  | _ -> Alcotest.failf "expected a %s diagnostic" stage
  | exception Diag.Error d ->
    Alcotest.(check string) "stage" stage d.Diag.stage;
    (match line with
     | None -> ()
     | Some l -> Alcotest.(check (option int)) "line" (Some l) d.Diag.line)

let assignment_of_code n code = Array.init n (fun i -> code land (1 lsl i) <> 0)

let brute_optimum compiled =
  let n = compiled.Compile.num_formula_vars in
  let best = ref infinity in
  for code = 0 to (1 lsl n) - 1 do
    best := Float.min !best (Compile.cost compiled (assignment_of_code n code))
  done;
  !best

(* The central contract: with ancillas at their conditional optimum, the
   compiled Hamiltonian's energy IS the violation cost — for every one of
   the 2^n assignments. *)
let check_invariant compiled =
  let n = compiled.Compile.num_formula_vars in
  for code = 0 to (1 lsl n) - 1 do
    let a = assignment_of_code n code in
    let e = Problem.energy compiled.Compile.problem (Compile.spins_of_assignment compiled a) in
    let c = Compile.cost compiled a in
    if Float.abs (e -. c) > 1e-6 *. Float.max 1.0 (Float.abs c) then
      Alcotest.failf "energy %.9g <> cost %.9g on assignment %d" e c code
  done

(* Exact-sampler cross-check: the compiled ground energy equals the MaxSAT
   optimum, every ground state decodes to an optimal assignment, and every
   optimal assignment lifts to a ground state. *)
let check_exact compiled =
  let p = compiled.Compile.problem in
  if p.Problem.num_vars > Exact.max_vars then
    Alcotest.failf "test instance too large for Exact (%d vars)" p.Problem.num_vars;
  let r = Exact.solve p in
  let opt = brute_optimum compiled in
  Alcotest.(check (float 1e-6)) "ground energy = MaxSAT optimum" opt
    r.Exact.ground_energy;
  List.iter
    (fun gs ->
       let a = Compile.decode compiled gs in
       Alcotest.(check (float 1e-6)) "ground state decodes optimally" opt
         (Compile.cost compiled a))
    r.Exact.ground_states;
  let n = compiled.Compile.num_formula_vars in
  for code = 0 to (1 lsl n) - 1 do
    let a = assignment_of_code n code in
    if Compile.cost compiled a <= opt +. 1e-9 then
      Alcotest.(check (float 1e-6)) "optimal assignment lifts to ground" opt
        (Problem.energy p (Compile.spins_of_assignment compiled a))
  done

let random_formula ~rng ~n ~m ~max_k ~weighted =
  let clause () =
    let k = 1 + Random.State.int rng max_k in
    let lits =
      Array.init k (fun _ ->
          let v = 1 + Random.State.int rng n in
          if Random.State.bool rng then v else -v)
    in
    let weight =
      if weighted && Random.State.bool rng then
        Dimacs.Soft (float_of_int (1 + Random.State.int rng 9))
      else Dimacs.Hard
    in
    { Dimacs.lits; weight }
  in
  { Dimacs.num_vars = n;
    clauses = Array.init m (fun _ -> clause ());
    mode = (if weighted then Dimacs.Wcnf else Dimacs.Cnf);
    top = None }

(* A planted instance: every clause is satisfied by [plant], so the formula
   is satisfiable by construction (optimum 0). *)
let planted_3sat ~rng ~n ~m =
  let plant = Array.init n (fun _ -> Random.State.bool rng) in
  let clause () =
    let vs = Array.init 3 (fun _ -> Random.State.int rng n) in
    vs.(1) <- (vs.(0) + 1 + Random.State.int rng (n - 1)) mod n;
    let rec pick () =
      let v = Random.State.int rng n in
      if v = vs.(0) || v = vs.(1) then pick () else v
    in
    vs.(2) <- pick ();
    let lits =
      Array.map (fun v -> if Random.State.bool rng then v + 1 else -(v + 1)) vs
    in
    let sat = Array.exists (fun l -> if l > 0 then plant.(l - 1) else not plant.(-l - 1)) lits in
    if not sat then begin
      (* flip one literal's polarity so the plant satisfies it *)
      let i = Random.State.int rng 3 in
      lits.(i) <- -lits.(i)
    end;
    { Dimacs.lits; weight = Dimacs.Hard }
  in
  ( plant,
    { Dimacs.num_vars = n;
      clauses = Array.init m (fun _ -> clause ());
      mode = Dimacs.Cnf;
      top = None } )

(* --- parser --------------------------------------------------------------- *)

let parser_tests =
  [ Alcotest.test_case "plain CNF with comments and split clauses" `Quick
      (fun () ->
         let f =
           Dimacs.parse
             "c a comment\nc another\np cnf 3 2\n1 -2\n3 0\n-1 2 -3 0\n"
         in
         Alcotest.(check int) "vars" 3 f.Dimacs.num_vars;
         Alcotest.(check int) "clauses" 2 (Array.length f.Dimacs.clauses);
         Alcotest.(check (array int)) "clause 0 spans lines" [| 1; -2; 3 |]
           f.Dimacs.clauses.(0).Dimacs.lits;
         Alcotest.(check bool) "all hard" true
           (Array.for_all (fun c -> c.Dimacs.weight = Dimacs.Hard) f.Dimacs.clauses);
         Alcotest.(check bool) "mode" true (f.Dimacs.mode = Dimacs.Cnf));
    Alcotest.test_case "WCNF: weights, 'h' marker, TOP threshold" `Quick
      (fun () ->
         let f =
           Dimacs.parse "p wcnf 2 4 50\nh 1 0\n50 2 0\n3.5 -1 0\n1 -2 0\n"
         in
         Alcotest.(check bool) "mode" true (f.Dimacs.mode = Dimacs.Wcnf);
         Alcotest.(check (option (float 0.0))) "top" (Some 50.0) f.Dimacs.top;
         Alcotest.(check int) "hard: h marker + at-top weight" 2 (Dimacs.num_hard f);
         Alcotest.(check int) "soft" 2 (Dimacs.num_soft f);
         Alcotest.(check (float 1e-9)) "soft weight sum" 4.5 (Dimacs.soft_weight_sum f));
    Alcotest.test_case "SATLIB '%' terminator" `Quick (fun () ->
        let f = Dimacs.parse "p cnf 2 1\n1 2 0\n%\n0\n" in
        Alcotest.(check int) "clauses" 1 (Array.length f.Dimacs.clauses));
    Alcotest.test_case "violations accounting" `Quick (fun () ->
        let f = Dimacs.parse "p wcnf 2 3\nh 1 2 0\n2 -1 0\n3 -2 0\n" in
        Alcotest.(check bool) "satisfied" true (Dimacs.satisfied f [| true; false |]);
        let hard, soft = Dimacs.violations f [| true; true |] in
        Alcotest.(check int) "hard" 0 hard;
        Alcotest.(check (float 1e-9)) "soft" 5.0 soft;
        let hard, soft = Dimacs.violations f [| false; false |] in
        Alcotest.(check int) "hard" 1 hard;
        Alcotest.(check (float 1e-9)) "soft" 0.0 soft);
    Alcotest.test_case "malformed input carries stage and line" `Quick
      (fun () ->
         expect_error ~stage:"dimacs" ~line:3 (fun () ->
             Dimacs.parse "c ok\np cnf 2 1\n1 5 0\n");
         expect_error ~stage:"dimacs" ~line:1 (fun () ->
             Dimacs.parse "1 2 0\np cnf 2 1\n");
         expect_error ~stage:"dimacs" ~line:3 (fun () ->
             Dimacs.parse "p cnf 2 2\n1 0\np cnf 2 2\n");
         expect_error ~stage:"dimacs" ~line:2 (fun () ->
             Dimacs.parse "p cnf 2 1\n1 2\n");
         expect_error ~stage:"dimacs" ~line:2 (fun () ->
             Dimacs.parse "p wcnf 2 1\n-3 1 0\n");
         expect_error ~stage:"dimacs" ~line:2 (fun () ->
             Dimacs.parse "p wcnf 2 1\nabc 1 0\n");
         expect_error ~stage:"dimacs" ~line:1 (fun () ->
             Dimacs.parse "p dnf 2 1\n1 0\n");
         expect_error ~stage:"dimacs" (fun () -> Dimacs.parse "c nothing here\n");
         expect_error ~stage:"dimacs" (fun () -> Dimacs.parse "p cnf 2 3\n1 0\n2 0\n"))
  ]

(* --- gadget --------------------------------------------------------------- *)

let gadget_tests =
  [ Alcotest.test_case "OR3 gadget verifies, needs an ancilla, caches" `Quick
      (fun () ->
         let g = Compile.clause_gadget () in
         Alcotest.(check bool) "Gen.verify" true (Gen.verify g.Compile.derived);
         Alcotest.(check bool) "at least one ancilla" true
           (g.Compile.derived.Gen.num_ancillas >= 1);
         Alcotest.(check bool) "effective gap positive" true
           (g.Compile.effective_gap > 0.0);
         Alcotest.(check bool) "effective gap >= LP gap" true
           (g.Compile.effective_gap >= g.Compile.derived.Gen.gap -. 1e-9);
         Array.iteri
           (fun idx anc ->
              Alcotest.(check int)
                (Printf.sprintf "ancilla row %d" idx)
                g.Compile.derived.Gen.num_ancillas (Array.length anc))
           g.Compile.ancilla_for;
         (* one LP solve per range: the second call is the same object *)
         Alcotest.(check bool) "cached" true (Compile.clause_gadget () == g));
    Alcotest.test_case "gadget under the Advantage range" `Quick (fun () ->
        let options = { Compile.default_options with Compile.range = Scale.advantage } in
        let g = Compile.clause_gadget ~options () in
        Alcotest.(check bool) "verifies" true (Gen.verify g.Compile.derived);
        Alcotest.(check bool) "fits range" true
          (Scale.fits Scale.advantage g.Compile.derived.Gen.problem))
  ]

(* --- compiler ------------------------------------------------------------- *)

let compile_text text =
  Compile.compile (Dimacs.parse text)

let compiler_tests =
  [ Alcotest.test_case "1/2/3-literal clauses: energy = violation cost" `Quick
      (fun () ->
         let c =
           compile_text "p cnf 4 6\n1 2 -3 0\n-1 3 4 0\n2 3 -4 0\n-2 -3 4 0\n1 -2 4 0\n-1 -3 -4 0\n"
         in
         check_invariant c;
         check_exact c;
         Alcotest.(check (float 1e-9)) "satisfiable" 0.0 (brute_optimum c));
    Alcotest.test_case "unsatisfiable CNF: ground energy counts clauses" `Quick
      (fun () ->
         (* x1, ~x1, and (x1 v x2)(x1 v ~x2)(~x1 v x2)(~x1 v ~x2): any
            assignment violates exactly 1 + 1 = 2 clauses at best. *)
         let c = compile_text "p cnf 2 6\n1 0\n-1 0\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n" in
         check_invariant c;
         check_exact c;
         Alcotest.(check (float 1e-9)) "optimum" 2.0 (brute_optimum c));
    Alcotest.test_case "normalization: duplicates, tautology, empty soft" `Quick
      (fun () ->
         let c =
           Compile.compile
             (Dimacs.parse "p wcnf 2 3\nh 1 1 2 0\n5 1 -1 0\n2 0\n")
         in
         (* duplicate literal merged *)
         Alcotest.(check int) "clause 0 deduped" 2
           (Array.length c.Compile.clauses.(0).Compile.clits);
         (* tautology compiled away *)
         Alcotest.(check int) "tautology has no literals" 0
           (Array.length c.Compile.clauses.(1).Compile.clits);
         Alcotest.(check int) "tautology has no gadget" 0
           (Array.length c.Compile.clauses.(1).Compile.subs);
         (* empty soft clause: a constant cost, never a variable *)
         Alcotest.(check int) "no ancillas" 0 c.Compile.num_ancillas;
         check_invariant c;
         check_exact c;
         (* optimum pays exactly the empty soft clause *)
         Alcotest.(check (float 1e-9)) "optimum" 2.0 (brute_optimum c));
    Alcotest.test_case "empty hard clause is refused" `Quick (fun () ->
        expect_error ~stage:"sat-compile" (fun () ->
            compile_text "p cnf 2 2\n1 2 0\n0\n"));
    Alcotest.test_case "k > 3 chaining: 5-literal clause" `Quick (fun () ->
        let c = compile_text "p cnf 5 2\n1 2 3 4 5 0\n-1 -2 -3 -4 -5 0\n" in
        let cc = c.Compile.clauses.(0) in
        Alcotest.(check int) "chain ancillas" 2 (Array.length cc.Compile.chain);
        Alcotest.(check int) "sub-clauses" 3 (Array.length cc.Compile.subs);
        check_invariant c;
        check_exact c);
    Alcotest.test_case "weighted MaxSAT: optimum is the cheapest trade" `Quick
      (fun () ->
         (* hard x1 xor x2; prefer both true (impossible): pay the lighter *)
         let c =
           compile_text "p wcnf 2 4\nh 1 2 0\nh -1 -2 0\n2 1 0\n5 2 0\n"
         in
         check_invariant c;
         check_exact c;
         Alcotest.(check (float 1e-9)) "optimum" 2.0 (brute_optimum c));
    Alcotest.test_case "hard clauses dominate any soft trade" `Quick (fun () ->
        (* soft weight sum 9; breaking the hard clause must cost more than
           satisfying every soft clause can recoup *)
        let c = compile_text "p wcnf 1 3\nh 1 0\n4 -1 0\n5 -1 0\n" in
        Alcotest.(check (float 1e-9)) "hard weight" 10.0 c.Compile.hard_weight;
        check_invariant c;
        check_exact c;
        Alcotest.(check (float 1e-9)) "optimum keeps the hard clause" 9.0
          (brute_optimum c));
    Alcotest.test_case "repair resets suboptimal ancillas" `Quick (fun () ->
        let c = compile_text "p cnf 3 1\n1 2 3 0\n" in
        let a = [| true; false; false |] in
        let spins = Compile.spins_of_assignment c a in
        (* corrupt every ancilla *)
        for i = c.Compile.num_formula_vars to Array.length spins - 1 do
          spins.(i) <- -spins.(i)
        done;
        let repaired = Compile.repair c spins in
        Alcotest.(check (float 1e-9)) "repaired energy = cost" (Compile.cost c a)
          (Problem.energy c.Compile.problem repaired);
        Alcotest.(check bool) "decision bits kept" true
          (Compile.decode c repaired = a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random k-SAT: exact sampler cross-check" ~count:40
         QCheck.(pair (int_bound 1_000_000) (pair (int_range 2 5) (int_range 1 6)))
         (fun (seed, (n, m)) ->
            let rng = Random.State.make [| seed; n; m |] in
            let f = random_formula ~rng ~n ~m ~max_k:3 ~weighted:false in
            let c = Compile.compile f in
            check_invariant c;
            check_exact c;
            true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random weighted MaxSAT: exact sampler cross-check"
         ~count:30
         QCheck.(pair (int_bound 1_000_000) (pair (int_range 2 5) (int_range 1 6)))
         (fun (seed, (n, m)) ->
            let rng = Random.State.make [| seed; n; m; 7 |] in
            let f = random_formula ~rng ~n ~m ~max_k:3 ~weighted:true in
            let c = Compile.compile f in
            check_invariant c;
            check_exact c;
            true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random long clauses chain correctly" ~count:15
         QCheck.(pair (int_bound 1_000_000) (int_range 4 6))
         (fun (seed, max_k) ->
            let rng = Random.State.make [| seed; max_k; 13 |] in
            let f = random_formula ~rng ~n:6 ~m:3 ~max_k ~weighted:false in
            let c = Compile.compile f in
            if c.Compile.problem.Problem.num_vars <= Exact.max_vars then begin
              check_invariant c;
              check_exact c
            end
            else check_invariant c;
            true))
  ]

(* --- weight-spread guard --------------------------------------------------- *)

let guard_tests =
  [ Alcotest.test_case "2^40 weight spread is refused, not clipped" `Quick
      (fun () ->
         expect_error ~stage:"sat-compile" (fun () ->
             compile_text "p wcnf 2 2\n1 1 0\n1099511627776 2 0\n"));
    Alcotest.test_case "moderate spread compiles" `Quick (fun () ->
        let c = compile_text "p wcnf 2 2\n1 1 0\n1000 2 0\n" in
        check_invariant c);
    Alcotest.test_case "precision_bits option tightens the budget" `Quick
      (fun () ->
         let options = { Compile.default_options with Compile.precision_bits = 5 } in
         expect_error ~stage:"sat-compile" (fun () ->
             Compile.compile ~options (Dimacs.parse "p wcnf 2 2\n1 1 0\n100 2 0\n"));
         (* the same text passes at the default budget *)
         ignore (compile_text "p wcnf 2 2\n1 1 0\n100 2 0\n"))
  ]

(* --- qbsolv decomposition -------------------------------------------------- *)

let qbsolv_tests =
  [ Alcotest.test_case "over-chip-size CNF through the decomposer" `Slow
      (fun () ->
         let rng = Random.State.make [| 2024 |] in
         let _plant, f = planted_3sat ~rng ~n:20 ~m:70 in
         let c = Compile.compile f in
         (* far beyond both Exact.max_vars and a C2 chip's 32 qubits *)
         Alcotest.(check bool) "over chip size" true
           (c.Compile.problem.Problem.num_vars > 32);
         let r =
           Qbsolv.sample
             ~params:{ Qbsolv.sub_size = 18; num_repeats = 12; max_rounds = 200;
                       seed = 11 }
             c.Compile.problem
         in
         let best =
           List.fold_left
             (fun acc (s : Sampler.sample) ->
                match acc with
                | Some (b : Sampler.sample) when b.Sampler.energy <= s.Sampler.energy -> acc
                | _ -> Some s)
             None r.Sampler.samples
         in
         let s = Option.get best in
         let a = Compile.decode c s.Sampler.spins in
         let hard, _ = Dimacs.violations f a in
         (* penalty-gap accounting: after ancilla repair, the energy IS the
            violated-clause count *)
         let repaired = Compile.repair c s.Sampler.spins in
         Alcotest.(check (float 1e-6)) "repaired energy = violation count"
           (float_of_int hard)
           (Problem.energy c.Compile.problem repaired);
         (* the sampler's raw energy can only over-report (suboptimal
            ancillas), never under-report *)
         Alcotest.(check bool) "reported energy >= violation count" true
           (s.Sampler.energy >= float_of_int hard -. 1e-6);
         (* a planted instance is satisfiable; the decomposer must do real
            optimization work (a random assignment violates ~m/8 = 9 of 70
            clauses in expectation), though its local optimum need not be
            the plant *)
         Alcotest.(check bool) "decomposer optimizes" true (hard <= 8))
  ]

(* --- serving tier ---------------------------------------------------------- *)

let tiler_params =
  { Tiler.default_params with
    Tiler.embed_params = Some { Qac_embed.Cmr.default_params with tries = 4 } }

let serve_solver ~deadline p =
  Sa.sample
    ~params:{ Sa.default_params with Sa.num_reads = 8; num_sweeps = 60; seed = 5 }
    ?deadline p

let chain_problem n =
  Problem.create ~num_vars:n
    ~h:(Array.init n (fun i -> if i mod 2 = 0 then 0.5 else -0.25))
    ~j:(List.init (n - 1) (fun i -> ((i, i + 1), if i mod 3 = 0 then -1.0 else 0.5)))
    ()

let serve_tests =
  [ Alcotest.test_case "mixed circuit + SAT batch drains Done with demux" `Quick
      (fun () ->
         (* Same clause structure, different weights: downstream the two SAT
            problems must share an embedding-cache entry. *)
         let sat_a =
           Compile.compile (Dimacs.parse "p wcnf 4 4\nh 1 2 -3 0\nh -2 3 4 0\n2 -1 0\n3 -4 0\n")
         in
         let sat_b =
           Compile.compile (Dimacs.parse "p wcnf 4 4\nh 1 2 -3 0\nh -2 3 4 0\n5 -1 0\n7 -4 0\n")
         in
         Alcotest.(check bool) "same structure digest" true
           (Cache.structure_digest sat_a.Compile.problem
            = Cache.structure_digest sat_b.Compile.problem);
         Alcotest.(check bool) "different content" false
           (Problem.equal sat_a.Compile.problem sat_b.Compile.problem);
         let embed_cache = Cache.create () in
         let t =
           Serve.create ~embed_cache ~tiler_params ~solver:serve_solver
             ~graph:(Chimera.create 6) ()
         in
         let jobs =
           [ { Serve.id = "circuit-0"; problem = chain_problem 5; timeout_ms = None };
             { Serve.id = "sat-a"; problem = sat_a.Compile.problem; timeout_ms = None };
             { Serve.id = "circuit-1"; problem = chain_problem 7; timeout_ms = None };
             { Serve.id = "sat-b"; problem = sat_b.Compile.problem; timeout_ms = None } ]
         in
         List.iter (Serve.submit t) jobs;
         let results = Serve.drain t in
         Alcotest.(check int) "all four served" 4 (List.length results);
         List.iter2
           (fun (j : Serve.job) (r : Serve.result) ->
              Alcotest.(check string) "demux order" j.Serve.id r.Serve.id;
              (match r.Serve.status with
               | Serve.Done -> ()
               | _ -> Alcotest.failf "%s: not Done" r.Serve.id);
              let resp = Option.get r.Serve.response in
              List.iter
                (fun (s : Sampler.sample) ->
                   Alcotest.(check int) (j.Serve.id ^ ": logical width")
                     j.Serve.problem.Problem.num_vars
                     (Array.length s.Sampler.spins))
                resp.Sampler.samples)
           jobs results;
         (* the SAT results decode and account exactly *)
         List.iter
           (fun (compiled, id) ->
              let r = List.find (fun (r : Serve.result) -> r.Serve.id = id) results in
              let resp = Option.get r.Serve.response in
              List.iter
                (fun (s : Sampler.sample) ->
                   let a = Compile.decode compiled s.Sampler.spins in
                   let repaired = Compile.repair compiled s.Sampler.spins in
                   Alcotest.(check (float 1e-6)) (id ^ ": repaired accounting")
                     (Compile.cost compiled a)
                     (Problem.energy compiled.Compile.problem repaired))
                resp.Sampler.samples)
           [ (sat_a, "sat-a"); (sat_b, "sat-b") ];
         (* structure sharing showed up as an embed-cache hit *)
         let stats = Cache.stats embed_cache in
         Alcotest.(check bool) "embed-cache hit across SAT jobs" true
           (stats.Cache.hits >= 1));
    Alcotest.test_case "submit_sat over the wire: compile server-side" `Quick
      (fun () ->
         let dimacs = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n" in
         let compiled = Compile.compile (Dimacs.parse dimacs) in
         let pool =
           Shard.create ~num_shards:1 ~tiler_params ~solver:serve_solver
             ~graph:(Chimera.create 6) ()
         in
         let sock_path = Filename.temp_file "qac_test_sat" ".sock" in
         let server = Server.create ~pool ~sockaddr:(Unix.ADDR_UNIX sock_path) () in
         let server_domain = Domain.spawn (fun () -> Server.run server) in
         let fd = Protocol.connect (Unix.ADDR_UNIX sock_path) in
         let ticket =
           match
             Protocol.call fd
               (Protocol.Submit_sat { id = "wire-sat"; dimacs; timeout_ms = None })
           with
           | Protocol.Submitted { ticket; _ } -> ticket
           | _ -> Alcotest.fail "submit_sat not accepted"
         in
         (* malformed DIMACS answers a structured error, same connection *)
         (match
            Protocol.call fd
              (Protocol.Submit_sat { id = "bad"; dimacs = "p cnf 1 1\n5 0\n";
                                     timeout_ms = None })
          with
          | Protocol.Error msg ->
            Alcotest.(check bool) "diagnostic names the stage" true
              (String.length msg >= 6 && String.sub msg 0 6 = "dimacs")
          | _ -> Alcotest.fail "expected Error for malformed DIMACS");
         let rec poll () =
           match Protocol.call fd (Protocol.Poll ticket) with
           | Protocol.Completed r -> r
           | Protocol.Pending ->
             Unix.sleepf 0.002;
             poll ()
           | _ -> Alcotest.fail "unexpected poll reply"
         in
         let r = poll () in
         (match Protocol.call fd Protocol.Shutdown with
          | Protocol.Shutdown_ok -> ()
          | _ -> Alcotest.fail "unexpected shutdown reply");
         Unix.close fd;
         ignore (Domain.join server_domain);
         Alcotest.(check string) "id" "wire-sat" r.Serve.id;
         (match r.Serve.status with
          | Serve.Done -> ()
          | _ -> Alcotest.fail "not Done");
         let resp = Option.get r.Serve.response in
         List.iter
           (fun (s : Sampler.sample) ->
              Alcotest.(check int) "compiled width"
                compiled.Compile.problem.Problem.num_vars
                (Array.length s.Sampler.spins);
              ignore (Compile.decode compiled s.Sampler.spins))
           resp.Sampler.samples);
    Alcotest.test_case "submit_sat JSON codec round-trips" `Quick (fun () ->
        let check r =
          Alcotest.(check bool) "round-trip" true
            (Protocol.request_of_json (Protocol.request_to_json r) = r)
        in
        check (Protocol.Submit_sat { id = "a"; dimacs = "p cnf 1 1\n1 0\n";
                                     timeout_ms = None });
        check (Protocol.Submit_sat { id = "b"; dimacs = "p wcnf 1 1\n2 -1 0\n";
                                     timeout_ms = Some 125.0 }))
  ]

(* The single-job solve path [vqa sat] uses: weak chains and a warm ramp
   make some reads break, and [Discard] must drop exactly those.  Both runs
   share the seed and the embedding, so they see the same raw samples. *)
let chain_break_tests =
  [ Alcotest.test_case "Pipeline.solve drops broken SAT reads under discard" `Quick
      (fun () ->
         let compiled = Compile.compile (Dimacs.parse_file "../examples/demo.cnf") in
         let target =
           P.Physical
             { graph = Chimera.create 4;
               chain_strength = Some 0.5;
               roof_duality = false }
         in
         let solver =
           P.Sa
             { Sa.default_params with
               Sa.num_reads = 64;
               num_sweeps = 50;
               seed = 7;
               beta_max = Some 2.0;
               greedy_postprocess = false }
         in
         let solve chain_break =
           P.solve ~embed_cache:(Cache.create ()) ~chain_break ~solver ~target
             compiled.Compile.problem
         in
         let broken (r : P.solve_result) = List.filter (fun (_, b) -> b > 0) r.P.reads in
         let voted = solve Embedding.Vote in
         let num_broken = List.length (broken voted) in
         Alcotest.(check bool) "weak chains break some reads" true (num_broken > 0);
         Alcotest.(check bool) "some reads stay clean" true
           (num_broken < List.length voted.P.reads);
         let discarded = solve Embedding.Discard in
         Alcotest.(check int) "no broken read survives" 0 (List.length (broken discarded));
         Alcotest.(check int) "every clean read survives"
           (List.length voted.P.reads - num_broken)
           (List.length discarded.P.reads)) ]

let suite =
  parser_tests @ gadget_tests @ compiler_tests @ guard_tests @ qbsolv_tests
  @ serve_tests @ chain_break_tests
