(** Benchmark harness.

    - [dune exec bench/main.exe] runs every experiment E1-E15 (DESIGN.md's
      index of the paper's tables and figures) and prints paper-vs-measured
      rows.
    - [dune exec bench/main.exe -- e12 e14] runs a subset.
    - [dune exec bench/main.exe -- bechamel] runs the Bechamel
      micro-benchmarks (one [Test.make] per experiment family).
    - [dune exec bench/main.exe -- trace] prints the per-stage span
      breakdown (times + size counters) for a compile+run of a multiplier.
    - [dune exec bench/main.exe -- parallel] measures domain-parallel SA
      read-batch scaling on a 300-variable spin glass.
    - [dune exec bench/main.exe -- kernel [smoke]] measures the CSR +
      incremental-field sweep kernel and the 64-lane bit-parallel kernel on
      Chimera-structured spin glasses and the pinned 5-bit multiplier (with
      the threshold-row time beside the block time), plus composite
      valid-read rates, and writes [BENCH_ANNEAL.json].  [smoke] restricts to small sizes/sweep
      counts for CI.
    - [dune exec bench/main.exe -- embed [smoke]] times [Qac_embed.Cmr] on
      spin-glass and multiplier interaction graphs, measures the embedding
      cache cold/warm behaviour, and writes [BENCH_EMBED.json].
    - [dune exec bench/main.exe -- batch [smoke]] compares batched-tiled
      serving ([Qac_serve] packing jobs onto one C16 via [Qac_embed.Tiler])
      against sequential [Pipeline.run] per job on a fleet of small
      circuits, and writes [BENCH_BATCH.json].
    - [dune exec bench/main.exe -- serve [smoke]] pushes the same mixed
      workload through the sharded serving tier (1 vs 4 shards, affinity
      vs round-robin routing, in-process vs through the socket front end),
      checks responses stay bit-identical across every arm, and writes
      [BENCH_SERVE.json].
    - [dune exec bench/main.exe -- pegasus [smoke]] compares Pegasus against
      Chimera at matched working-qubit budgets (C4 vs P3, C8 vs P5): minor
      embedding of the paper's circuits (qubit counts, max/mean chain
      length), end-to-end [Pipeline.run] latency, a tiled multi-job batch
      served on Pegasus, native-K4 clique embeddings, and the cell library
      rederived under the Advantage coefficient ranges.  Writes
      [BENCH_PEGASUS.json].
    - [dune exec bench/main.exe -- sat [smoke]] batch-serves planted random
      3-SAT instances (compiled to Ising penalties by [Qac_sat]) through the
      tiler on Chimera and Pegasus, reporting solved fraction, jobs/s, and
      embedding-cache sharing across the structurally identical batch; writes
      [BENCH_SAT.json]. *)

let run_experiments ids =
  let selected =
    if ids = [] then Experiments.all
    else
      List.filter_map
        (fun id ->
           match List.find_opt (fun (eid, _, _) -> eid = id) Experiments.all with
           | Some e -> Some e
           | None ->
             Printf.eprintf "unknown experiment %s\n" id;
             None)
        ids
  in
  print_endline "Reproduction of 'Targeting Classical Code to a Quantum Annealer' (ASPLOS'19)";
  print_endline "Absolute numbers come from a classical substrate; compare shapes, not values.";
  List.iter
    (fun (_, _, run) ->
       let t0 = Unix.gettimeofday () in
       run ();
       Printf.printf "[%.1fs]\n" (Unix.gettimeofday () -. t0))
    selected

(* --- Bechamel micro-benchmarks -------------------------------------------- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  (* Small fixed workloads, one per experiment family. *)
  let fig2 =
    "module circuit (s, a, b, c); input s, a, b; output [1:0] c; assign c = s ? a + b : a - b; endmodule"
  in
  let compiled = Qac_core.Pipeline.compile fig2 in
  let logical = compiled.Qac_core.Pipeline.program.Qac_qmasm.Assemble.problem in
  let australia_csp () =
    Qac_csp.Mzn.parse
      "var 1..4: NSW; var 1..4: QLD; var 1..4: SA; var 1..4: VIC; var 1..4: WA;\n\
       var 1..4: NT; var 1..4: ACT;\n\
       constraint WA != NT; constraint WA != SA; constraint NT != SA;\n\
       constraint NT != QLD; constraint SA != QLD; constraint SA != NSW;\n\
       constraint SA != VIC; constraint QLD != NSW; constraint NSW != VIC;\n\
       constraint NSW != ACT;\nsolve satisfy;\n"
  in
  let chimera = Qac_chimera.Chimera.create 4 in
  let triangle =
    Qac_ising.Problem.create ~num_vars:3 ~h:[| 0.5; 0.5; 0.5 |]
      ~j:[ ((0, 1), 1.0); ((1, 2), 1.0); ((0, 2), 1.0) ]
      ()
  in
  let and_table = Qac_cellgen.Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) && v.(1)) in
  let sa_params =
    { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 5; num_sweeps = 100 }
  in
  let tests =
    [ Test.make ~name:"e1-compile: verilog->ising (fig2)"
        (Staged.stage (fun () -> ignore (Qac_core.Pipeline.compile fig2)));
      Test.make ~name:"e4-cellgen: derive AND via LP"
        (Staged.stage (fun () -> ignore (Qac_cellgen.Gen.derive_exact and_table)));
      Test.make ~name:"e6-exact: enumerate fig2 problem"
        (Staged.stage (fun () -> ignore (Qac_ising.Exact.solve ~limit:1 logical)));
      Test.make ~name:"e9-embed: triangle into C4"
        (Staged.stage (fun () -> ignore (Qac_embed.Cmr.find chimera triangle)));
      Test.make ~name:"e12-sa: 5 reads x 100 sweeps (fig2 problem)"
        (Staged.stage (fun () -> ignore (Qac_anneal.Sa.sample ~params:sa_params logical)));
      Test.make ~name:"e15-csp: solve Listing 8"
        (Staged.stage
           (fun () ->
              let csp = australia_csp () in
              ignore (Qac_csp.Csp.solve csp)));
      Test.make ~name:"qmasm: parse+assemble stdcell AND"
        (Staged.stage
           (fun () ->
              ignore
                (Qac_qmasm.Qmasm.load ~resolve:Qac_edif2qmasm.Edif2qmasm.resolve
                   "!include \"stdcell.qmasm\"\n!use_macro AND g\n")));
    ]
  in
  print_endline "Bechamel micro-benchmarks (time per run, monotonic clock):";
  List.iter
    (fun test ->
       let instances = Instance.[ monotonic_clock ] in
       let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
       let results = Benchmark.all cfg instances test in
       let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
       let analyzed = Analyze.all ols Instance.monotonic_clock results in
       Hashtbl.iter
         (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] ->
              Printf.printf "  %-48s %12.1f us\n" name (est /. 1000.0)
            | Some _ | None -> Printf.printf "  %-48s (no estimate)\n" name)
         analyzed)
    tests

(* --- Per-stage tracing ------------------------------------------------------ *)

let trace_breakdown () =
  let module P = Qac_core.Pipeline in
  let module Trace = Qac_diag.Trace in
  let src =
    "module mult (a, b, p); input [2:0] a; input [2:0] b; output [5:0] p; \
     assign p = a * b; endmodule"
  in
  let trace = Trace.create () in
  let t = P.compile ~trace src in
  let params =
    { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 200; num_sweeps = 500 }
  in
  let result =
    P.run t ~pins:[ ("p", 15) ] ~trace ~solver:(P.Sa params) ~target:P.Logical
  in
  Printf.printf "per-stage trace (compile + run, 3x3 multiplier, p pinned to 15):\n";
  Format.printf "%a" Trace.pp trace;
  Printf.printf "valid solutions: %d of %d distinct\n"
    (List.length (P.valid_solutions result))
    (List.length result.P.solutions)

(* --- Domain-parallel SA scaling --------------------------------------------- *)

let parallel_scaling () =
  let module Rng = Qac_anneal.Rng in
  (* A 300-variable random spin glass: ring + random chords. *)
  let n = 300 in
  let rng = Rng.create 1 in
  let h = Array.init n (fun _ -> (Rng.float rng *. 2.0) -. 1.0) in
  let seen = Hashtbl.create 1024 in
  let j = ref [] in
  for i = 0 to n - 1 do
    Hashtbl.replace seen (i, (i + 1) mod n) ();
    j := ((i, (i + 1) mod n), (Rng.float rng *. 2.0) -. 1.0) :: !j
  done;
  let added = ref 0 in
  while !added < 3 * n do
    let a = Rng.int rng n and b = Rng.int rng n in
    let key = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      j := (key, (Rng.float rng *. 2.0) -. 1.0) :: !j;
      incr added
    end
  done;
  let problem = Qac_ising.Problem.create ~num_vars:n ~h ~j:!j () in
  let params =
    { Qac_anneal.Sa.default_params with
      Qac_anneal.Sa.num_reads = 256;
      num_sweeps = 400;
      seed = 7 }
  in
  Printf.printf
    "domain-parallel SA: %d vars, %d terms, %d reads x %d sweeps (%d cores available)\n"
    n
    (Qac_ising.Problem.num_terms problem)
    params.Qac_anneal.Sa.num_reads params.Qac_anneal.Sa.num_sweeps
    (Domain.recommended_domain_count ());
  let baseline = ref 0.0 in
  List.iter
    (fun threads ->
       let r = Qac_anneal.Parallel.sample_sa ~num_threads:threads ~params problem in
       let wall = r.Qac_anneal.Sampler.elapsed_seconds in
       if threads = 1 then baseline := wall;
       Printf.printf
         "  threads=%-2d  wall=%7.3fs  speedup=%5.2fx  distinct=%d  best=%g\n" threads wall
         (!baseline /. wall)
         (Qac_anneal.Sampler.num_distinct r)
         (Qac_anneal.Sampler.best r).Qac_anneal.Sampler.energy)
    [ 1; 2; 4; 8 ]

(* --- BENCH_*.json reports ------------------------------------------------------ *)

module Json = Qac_diag.Json

let int i = Json.Num (float_of_int i)
let num x = if Float.is_finite x then Json.Num x else Json.Null
let str s = Json.Str s
let bool b = Json.Bool b

(* Every report opens with the same three keys: which benchmark, smoke or
   full mode, and the core count the numbers were measured on. *)
let write_bench ~smoke file name fields =
  let oc = open_out file in
  output_string oc
    (Json.to_string
       (Json.Obj
          (("benchmark", str name)
           :: ("mode", str (if smoke then "smoke" else "full"))
           :: ("cores", int (Domain.recommended_domain_count ()))
           :: fields)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

(* --- Annealing kernel microbenchmark ---------------------------------------- *)

(* A Chimera-structured spin glass: the native topology of the paper's
   target hardware, so degrees (5-6) match what embedded problems see. *)
let chimera_glass ~m ~seed =
  let module Rng = Qac_anneal.Rng in
  let module Chimera = Qac_chimera.Chimera in
  let g = Chimera.create m in
  let n = Chimera.num_qubits g in
  let rng = Rng.create seed in
  let h = Array.init n (fun _ -> (Rng.float rng *. 2.0) -. 1.0) in
  let j =
    List.map
      (fun (a, b) -> ((a, b), (Rng.float rng *. 2.0) -. 1.0))
      (Chimera.edges g)
  in
  Qac_ising.Problem.create ~num_vars:n ~h ~j ()

let csr_sweeps (p : Qac_ising.Problem.t) ~rng ~schedule ~num_sweeps =
  let module State = Qac_anneal.State in
  let st = State.random p rng in
  let order = Array.init (State.num_vars st) (fun i -> i) in
  Qac_anneal.Rng.shuffle rng order;
  for step = 0 to num_sweeps - 1 do
    let beta = Qac_anneal.Schedule.beta schedule ~step ~num_steps:num_sweeps in
    State.metropolis_sweep st ~beta ~rng ~order
  done;
  State.energy st

(* Valid-read rates for the composite post-processors and chain-break
   policies on the E1-style circuit, solved through a minor embedding (the
   path where broken chains and excited cells actually occur).  The ramp is
   capped warm ([beta_max = 2]) so reads carry thermal excitations, like
   raw annealer samples — a fully cooled SA read is already a local
   minimum, leaving polish nothing to do.  Rate = valid occurrences /
   occurrences emitted, so [discard] is scored on what it keeps. *)
let composite_rows ~smoke () =
  let module P = Qac_core.Pipeline in
  let fig2 =
    "module circuit (s, a, b, c); input s, a, b; output [1:0] c; assign c = s ? a + b : a - b; endmodule"
  in
  let t = P.compile fig2 in
  let reads = if smoke then 40 else 200 in
  let sweeps = if smoke then 60 else 100 in
  let params =
    { Qac_anneal.Sa.default_params with
      Qac_anneal.Sa.num_reads = reads;
      num_sweeps = sweeps;
      seed = 42;
      beta_max = Some 2.0;
      greedy_postprocess = false }
  in
  let target =
    P.Physical
      { graph = Qac_chimera.Chimera.create 8;
        embed_params = None;
        chain_strength = None;
        roof_duality = false }
  in
  let cache = Qac_embed.Cache.create () in
  let configs =
    [ (`None, Qac_embed.Embedding.Vote);
      (`Polish, Qac_embed.Embedding.Vote);
      (`Gauge, Qac_embed.Embedding.Vote);
      (`None, Qac_embed.Embedding.Discard);
      (`None, Qac_embed.Embedding.Polish) ]
  in
  Printf.printf
    "composite post-processing: valid-read rate on the E1-style circuit\n\
     (minor-embedded into C8, SA %d reads x %d sweeps, ramp capped warm at \
     beta_max=2 to emulate raw annealer reads)\n"
    reads sweeps;
  List.map
    (fun (postprocess, chain_break) ->
       let t0 = Unix.gettimeofday () in
       let result =
         P.run t ~embed_cache:cache ~postprocess ~chain_break
           ~solver:(P.Sa params) ~target
       in
       let seconds = Unix.gettimeofday () -. t0 in
       let occurrences l =
         List.fold_left (fun acc (s : P.solution) -> acc + s.P.num_occurrences) 0 l
       in
       let valid = occurrences (P.valid_solutions result) in
       let total = occurrences result.P.solutions in
       let rate = float_of_int valid /. float_of_int (max 1 total) in
       let pp = Qac_anneal.Composite.string_of_postprocess postprocess in
       let cb = Qac_embed.Embedding.string_of_chain_break chain_break in
       Printf.printf
         "  postprocess=%-6s chain-break=%-7s  valid %4d / %4d reads  rate=%.3f  \
          (%.2fs)\n"
         pp cb valid total rate seconds;
       Json.Obj
         [ ("postprocess", str pp); ("chain_break", str cb); ("num_reads", int reads);
           ("valid_occurrences", int valid); ("emitted_occurrences", int total);
           ("valid_read_rate", num rate); ("seconds", num seconds) ])
    configs

(* Section 5.3's backward multiplier, [w]-bit factors with the product
   pinned: the problem shape factor-logical anneals (155 variables and
   fields up to about 500 levels at w = 5). *)
let pinned_multiplier ~w ~product =
  let module P = Qac_core.Pipeline in
  let src =
    Printf.sprintf
      "module mult (a, b, p); input [%d:0] a; input [%d:0] b; output [%d:0] p; \
       assign p = a * b; endmodule"
      (w - 1) (w - 1) ((2 * w) - 1)
  in
  (P.assemble_with_pins ~pins:[ ("p", product) ] (P.compile src)).Qac_qmasm.Assemble.problem

let kernel_bench ~smoke () =
  let module Rng = Qac_anneal.Rng in
  (* (label, problem, sweeps): Chimera glasses of 8*m^2 variables, then
     the 5-bit pinned multiplier at factor-logical's 800 sweeps. *)
  let glass m = (Printf.sprintf "chimera-glass-c%d" m, chimera_glass ~m ~seed:(100 + m)) in
  let mult5 = ("pinned-multiplier-w5", pinned_multiplier ~w:5 ~product:899) in
  let cases =
    if smoke then [ (glass 4, 80); (glass 8, 40); (mult5, 100) ]
    else [ (glass 4, 3000); (glass 8, 1200); (glass 16, 300); (mult5, 800) ]
  in
  let repeats = if smoke then 1 else 3 in
  Printf.printf
    "annealing kernel: CSR + incremental fields vs bit-parallel 64-lane blocks\n\
     (Chimera-structured spin glasses, shore 4; 5-bit multiplier, product pinned)\n";
  (* Warm up once, then keep the fastest of [repeats] runs (the
     least-disturbed measurement on a shared machine). *)
  let best_of f =
    ignore (f ());
    let best = ref (f ()) in
    for _ = 2 to repeats do
      let (seconds, _) as r = f () in
      if seconds < fst !best then best := r
    done;
    !best
  in
  let rows =
    List.map
      (fun ((label, p), num_sweeps) ->
         let n = p.Qac_ising.Problem.num_vars in
         let couplers = Qac_ising.Problem.num_interactions p in
         let schedule = Qac_anneal.Schedule.create p in
         let csr_seconds, csr_energy =
           best_of (fun () ->
               let rng = Rng.create 7 in
               let t0 = Unix.gettimeofday () in
               let energy = csr_sweeps p ~rng ~schedule ~num_sweeps in
               (Unix.gettimeofday () -. t0, energy))
         in
         (* The packed kernel anneals 64 replicas per pass; its figure of
            merit is {e aggregate} spin-updates/s across the block.  The
            block fills each sweep's threshold row as it goes, so its time
            includes the tables; [tables_seconds] is that share on its own:
            quantization, the per-sweep factors and every row filled once. *)
         let module Bitpar = Qac_anneal.Bitpar in
         let module Schedule = Qac_anneal.Schedule in
         let lanes = Bitpar.max_lanes in
         let tables_seconds, (q, acceptance) =
           best_of (fun () ->
               let t0 = Unix.gettimeofday () in
               let q = Bitpar.quantize p in
               let acceptance = Bitpar.acceptance q schedule ~num_sweeps in
               let row = Array.make acceptance.Schedule.width 0 in
               for step = 0 to num_sweeps - 1 do
                 ignore (Schedule.fill_row acceptance ~step row)
               done;
               (Unix.gettimeofday () -. t0, (q, acceptance)))
         in
         let bitpar_seconds, bitpar_energy =
           best_of (fun () ->
               let t0 = Unix.gettimeofday () in
               let r = Bitpar.anneal_block q ~acceptance ~lanes ~block_seed:7 in
               let seconds = Unix.gettimeofday () -. t0 in
               ( seconds,
                 Array.fold_left
                   (fun acc spins -> Float.min acc (Qac_ising.Problem.energy p spins))
                   infinity r.Bitpar.reads ))
         in
         let rate seconds = float_of_int num_sweeps /. seconds in
         let csr_updates = float_of_int (n * num_sweeps) /. csr_seconds in
         let bitpar_agg_updates =
           float_of_int (n * num_sweeps * lanes) /. bitpar_seconds
         in
         let bitpar_ratio = bitpar_agg_updates /. csr_updates in
         Printf.printf
           "  %-20s n=%-5d couplers=%-5d levels=%-4d sweeps=%-4d csr=%9.1f sw/s  \
            bitpar=%6.0fM agg upd/s (%4.2fx csr)  tables=%.2fms  (E_csr=%g E_bp=%g)\n"
           label n couplers q.Bitpar.max_level num_sweeps (rate csr_seconds)
           (bitpar_agg_updates /. 1e6) bitpar_ratio (tables_seconds *. 1e3) csr_energy
           bitpar_energy;
         Json.Obj
           [ ("problem", str label); ("num_vars", int n); ("num_couplers", int couplers);
             ("max_level", int q.Bitpar.max_level);
             ("num_sweeps", int num_sweeps); ("csr_seconds", num csr_seconds);
             ("csr_sweeps_per_sec", num (rate csr_seconds));
             ("csr_spin_updates_per_sec", num csr_updates);
             ("bitpar_seconds", num bitpar_seconds); ("tables_seconds", num tables_seconds);
             ("bitpar_lanes", int lanes); ("bitpar_num_threads", int 1);
             ("bitpar_agg_spin_updates_per_sec", num bitpar_agg_updates);
             ("bitpar_vs_csr", num bitpar_ratio) ])
      cases
  in
  let composites = composite_rows ~smoke () in
  write_bench ~smoke "BENCH_ANNEAL.json" "anneal-kernel"
    [ ( "workload",
        str
          "Metropolis sweeps, geometric schedule: Chimera-structured spin glasses \
           (shore 4) and the section 5.3 5-bit multiplier with its product pinned" );
      ( "kernels",
        Json.Obj
          [ ("csr", str "row_start/col/weight arrays + incremental local-field state");
            ( "bitpar",
              str
                "64 replicas per block, integer quantized fields, branch-free \
                 acceptance, per-sweep threshold rows filled inside the block \
                 (tables_seconds: that share alone); aggregate updates/s, \
                 single-threaded (blocks scale across domains via Parallel)" ) ] );
      ("results", Json.Arr rows);
      ("composite_valid_read_rate", Json.Arr composites) ]

(* --- Minor-embedding microbenchmark ----------------------------------------- *)

(* A random logical interaction graph: ring + random chords, unit weights
   (the embedder reads only the coupler structure). *)
let random_logical ~num_vars ~chords ~seed =
  let module Rng = Qac_anneal.Rng in
  let rng = Rng.create seed in
  let seen = Hashtbl.create (4 * num_vars) in
  let j = ref [] in
  for i = 0 to num_vars - 1 do
    let key = (min i ((i + 1) mod num_vars), max i ((i + 1) mod num_vars)) in
    Hashtbl.replace seen key ();
    j := (key, 1.0) :: !j
  done;
  let added = ref 0 in
  while !added < chords do
    let a = Rng.int rng num_vars and b = Rng.int rng num_vars in
    let key = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      j := (key, 1.0) :: !j;
      incr added
    end
  done;
  Qac_ising.Problem.create ~num_vars ~h:(Array.make num_vars 0.0) ~j:!j ()

let multiplier_problem () =
  let src =
    "module mult (a, b, p); input [2:0] a; input [2:0] b; output [5:0] p; \
     assign p = a * b; endmodule"
  in
  let t = Qac_core.Pipeline.compile src in
  t.Qac_core.Pipeline.program.Qac_qmasm.Assemble.problem

let embed_bench ~smoke () =
  let module Embedding = Qac_embed.Embedding in
  (* (name, chimera grid size, logical problem).  The C8 spin glass is the
     acceptance workload: 512 physical qubits, single-threaded. *)
  let cases =
    if smoke then
      [ ("C4 spin glass", 4, random_logical ~num_vars:12 ~chords:12 ~seed:11);
        ("C8 spin glass", 8, random_logical ~num_vars:24 ~chords:24 ~seed:12) ]
    else
      [ ("C4 spin glass", 4, random_logical ~num_vars:16 ~chords:16 ~seed:11);
        ("C8 spin glass", 8, random_logical ~num_vars:48 ~chords:48 ~seed:12);
        ("C8 multiplier", 8, multiplier_problem ());
        ("C16 spin glass", 16, random_logical ~num_vars:72 ~chords:72 ~seed:13) ]
  in
  let tries = if smoke then 1 else 2 in
  (* One seed's trajectory (how many refinement passes until a valid
     minor) is luck; summing over a few seeds measures the algorithm, not
     the dice. *)
  let seeds = if smoke then [ 5 ] else [ 5; 6; 7; 8; 9; 10 ] in
  Printf.printf
    "minor embedding: CSR + scratch-reusing Cmr (tries=%d, single-threaded, %d seed(s))\n"
    tries (List.length seeds);
  let rows =
    List.map
      (fun (name, m, p) ->
         let graph = Qac_chimera.Chimera.create m in
         let num_qubits = Qac_chimera.Chimera.num_qubits graph in
         let couplers = Qac_ising.Problem.num_interactions p in
         (* Sum wall time across seeds; keep the best embedding found. *)
         let time f =
           List.fold_left
             (fun (total, best, ok) seed ->
                (* Per-seed results are deterministic, so the min of two
                   timings measures the same computation with less of the
                   shared machine's scheduling noise.  [Gc.compact] keeps
                   each timing from inheriting earlier major-heap garbage. *)
                let timed_once () =
                  Gc.compact ();
                  let t0 = Unix.gettimeofday () in
                  let e = f seed in
                  (Unix.gettimeofday () -. t0, e)
                in
                let t1, embedding = timed_once () in
                let t2, _ = timed_once () in
                let total = total +. Float.min t1 t2 in
                match embedding with
                | None -> (total, best, ok)
                | Some e ->
                  let q = Embedding.num_physical_qubits e in
                  (match best with
                   | Some (bq, _) when bq <= q -> (total, best, ok + 1)
                   | _ -> (total, Some (q, e), ok + 1)))
             (0.0, None, 0) seeds
         in
         let cmr_seconds, cmr_best, cmr_ok =
           time (fun seed ->
               Qac_embed.Cmr.find
                 ~params:
                   { Qac_embed.Cmr.default_params with tries; seed; num_threads = 1 }
                 graph p)
         in
         (* Whatever was found must be a valid minor; quality (qubit count,
            success rate) is reported so a speedup can't hide a regression. *)
         if cmr_ok = 0 then failwith ("Cmr never embedded " ^ name);
         (match cmr_best with
          | Some (_, e) ->
            (match Embedding.verify graph p e with
             | Ok () -> ()
             | Error msg -> failwith ("Cmr invalid on " ^ name ^ ": " ^ msg))
          | None -> ());
         let qubits = function Some (q, _) -> q | None -> -1 in
         Printf.printf "  %-16s n=%-3d couplers=%-3d qubits=%-5d cmr=%7.3fs (%d qb, %d/%d)\n"
           name p.Qac_ising.Problem.num_vars couplers num_qubits cmr_seconds
           (qubits cmr_best) cmr_ok (List.length seeds);
         Json.Obj
           [ ("name", str name); ("chimera_m", int m); ("num_qubits", int num_qubits);
             ("logical_vars", int p.Qac_ising.Problem.num_vars);
             ("logical_couplers", int couplers); ("tries", int tries);
             ("seeds", int (List.length seeds)); ("cmr_seconds", num cmr_seconds);
             ("cmr_embedding_qubits", int (qubits cmr_best));
             ("cmr_successes", int cmr_ok) ])
      cases
  in
  (* Cache behaviour: a second Pipeline.run of the same circuit shape must
     hit the cache and skip the embed span entirely. *)
  let module P = Qac_core.Pipeline in
  let module Trace = Qac_diag.Trace in
  let t =
    P.compile
      "module t (a, b, o); input [1:0] a; input [1:0] b; output [3:0] o; \
       assign o = a * b; endmodule"
  in
  let target =
    P.Physical
      { graph = Qac_chimera.Chimera.create 8;
        embed_params = None;
        chain_strength = None;
        roof_duality = false }
  in
  let solver =
    P.Sa { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 1; num_sweeps = 10 }
  in
  let cache = Qac_embed.Cache.create () in
  let run_traced () =
    let trace = Trace.create () in
    let (_ : P.run_result) = P.run t ~trace ~embed_cache:cache ~solver ~target in
    trace
  in
  let embed_seconds trace =
    List.fold_left
      (fun acc s -> if s.Trace.name = "embed" then acc +. s.Trace.elapsed_seconds else acc)
      0.0 (Trace.spans trace)
  in
  let cold = run_traced () in
  let warm = run_traced () in
  let cold_embed = embed_seconds cold in
  let warm_hit = Trace.find_counter warm "embed-cache-hit" "embed-cache-hit" in
  let warm_hit =
    match warm_hit with
    | Some v -> v
    | None ->
      (* The hit counter attaches to whichever span is open — look it up
         across all spans. *)
      List.fold_left
        (fun acc s ->
           match Trace.find_counter warm s.Trace.name "embed-cache-hit" with
           | Some v -> acc + v
           | None -> acc)
        0 (Trace.spans warm)
  in
  let warm_embed = embed_seconds warm in
  Printf.printf
    "  embed cache      cold=%8.3fs  warm=%8.3fs  warm-hit=%d (embed span %s)\n"
    cold_embed warm_embed warm_hit
    (if warm_embed = 0.0 then "skipped" else "present");
  write_bench ~smoke "BENCH_EMBED.json" "minor-embedding"
    [ ( "workload",
        str
          "CMR minor embedding into Chimera (shore 4), spin-glass and multiplier \
           interaction graphs" );
      ( "embedders",
        Json.Obj
          [ ( "cmr",
              str
                "CSR rows, reused Dijkstra scratch, decrease-key int heap, \
                 bool-mask trim" ) ] );
      ("results", Json.Arr rows);
      ( "cache",
        Json.Obj
          [ ("cold_embed_seconds", num cold_embed);
            ("warm_embed_seconds", num warm_embed);
            ("warm_cache_hits", int warm_hit);
            ("warm_embed_span_skipped", bool (warm_embed = 0.0)) ] ) ]

(* --- Serving fleet ------------------------------------------------------------ *)

(* The serving benchmarks' workload: one [w]-bit add/xor/and/or circuit per
   width, as (name, width, Verilog source), and the pins of its [i]-th job. *)
let circuit_fleet ~prefix widths =
  List.concat_map
    (fun w ->
       List.map
         (fun (opname, op) ->
            let name = Printf.sprintf "%s%d_%s" prefix w opname in
            ( name,
              w,
              Printf.sprintf
                "module %s (a, b, y); input [%d:0] a; input [%d:0] b; \
                 output [%d:0] y; assign y = a %s b; endmodule"
                name (w - 1) (w - 1) w op ))
         [ ("add", "+"); ("xor", "^"); ("and", "&"); ("or", "|") ])
    widths

let fleet_pins i w = [ ("a", i mod (1 lsl w)); ("b", ((3 * i) + 1) mod (1 lsl w)) ]

(* CMR wants generous headroom on Chimera (chains eat qubits): slack 6
   makes the ladder's first block size succeed for nearly every job, so
   tiling pays one cheap local embed per job instead of climbing through
   failed attempts at tight sizes. *)
let fleet_tiler_params ~tries =
  { Qac_embed.Tiler.default_params with
    Qac_embed.Tiler.slack = 6.0;
    embed_params = Some { Qac_embed.Cmr.default_params with tries } }

let fleet_sa_params ~smoke =
  { Qac_anneal.Sa.default_params with
    Qac_anneal.Sa.num_reads = (if smoke then 10 else 50);
    num_sweeps = (if smoke then 50 else 200);
    seed = 42 }

(* --- Batch serving benchmark ------------------------------------------------ *)

(* Both arms solve the same fleet of pinned adder/logic circuits against a
   C16: the sequential arm embeds each job into the full 2048-qubit graph
   (Pipeline.run, one job at a time); the batched arm hands all jobs to the
   serve scheduler, which embeds each into a small local C_k, tiles them
   side by side, and solves them concurrently.  Compilation is hoisted out
   of both timings — the comparison is about serving, not the front end. *)
let batch_bench ~smoke () =
  let module P = Qac_core.Pipeline in
  let module Serve = Qac_serve.Serve in
  let module Sampler = Qac_anneal.Sampler in
  let widths = if smoke then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let jobs =
    List.mapi
      (fun i (name, w, src) -> (i, name, P.compile src, fleet_pins i w))
      (circuit_fleet ~prefix:"j" widths)
  in
  let n = List.length jobs in
  let tries = if smoke then 2 else 8 in
  let sa_params = fleet_sa_params ~smoke in
  let threads = min 8 (Domain.recommended_domain_count ()) in
  let graph = Qac_chimera.Chimera.create 16 in
  Printf.printf
    "batch serving: sequential Pipeline.run vs tiled Serve on %s\n\
     (%d circuits, SA %d reads x %d sweeps, embed tries=%d, %d threads)\n"
    graph.Qac_chimera.Topology.name n sa_params.Qac_anneal.Sa.num_reads
    sa_params.Qac_anneal.Sa.num_sweeps tries threads;
  let count_valid t program (resp : Sampler.response) =
    let verify = P.solution_of_spins t ~program in
    List.exists (fun (s : Sampler.sample) -> (verify s.Sampler.spins).P.valid) resp.Sampler.samples
  in
  (* Sequential arm: one full-graph embed + solve per job. *)
  let seq_cache = Qac_embed.Cache.create () in
  let seq_valid = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (_, _, t, pins) ->
       let r =
         P.run t ~pins ~num_threads:threads ~embed_cache:seq_cache
           ~solver:(P.Sa sa_params)
           ~target:
             (P.Physical
                { graph;
                  embed_params =
                    Some { Qac_embed.Cmr.default_params with tries; num_threads = threads };
                  chain_strength = None;
                  roof_duality = false })
       in
       if P.valid_solutions r <> [] then incr seq_valid)
    jobs;
  let sequential_seconds = Unix.gettimeofday () -. t0 in
  (* Batched arm: submit everything, let the scheduler tile and solve. *)
  let batch_cache = Qac_embed.Cache.create () in
  let tiler_params = fleet_tiler_params ~tries in
  let solver = P.composite_solve (P.Sa sa_params) in
  let programs = Hashtbl.create n in
  let t0 = Unix.gettimeofday () in
  let service =
    Serve.create ~batch_jobs:n ~num_threads:threads ~tiler_params
      ~embed_cache:batch_cache ~solver ~graph ()
  in
  List.iter
    (fun (i, name, t, pins) ->
       let program = P.assemble_with_pins ~pins t in
       let id = Printf.sprintf "%s#%d" name i in
       Hashtbl.replace programs id (t, program);
       Serve.submit service
         { Serve.id; problem = program.Qac_qmasm.Assemble.problem; timeout_ms = None })
    jobs;
  let results = Serve.drain service in
  let batched_seconds = Unix.gettimeofday () -. t0 in
  let batch_valid = ref 0 and batch_done = ref 0 in
  List.iter
    (fun (r : Serve.result) ->
       (match r.Serve.status with Serve.Done -> incr batch_done | _ -> ());
       match r.Serve.response with
       | Some resp ->
         let t, program = Hashtbl.find programs r.Serve.id in
         if count_valid t program resp then incr batch_valid
       | None -> ())
    results;
  let st = Serve.stats service in
  let { Qac_embed.Cache.hits; misses; _ } = Qac_embed.Cache.stats batch_cache in
  let jps seconds = float_of_int n /. seconds in
  let speedup = sequential_seconds /. batched_seconds in
  Printf.printf
    "  sequential: %7.2fs (%5.2f jobs/s, %d/%d valid)\n\
    \  batched:    %7.2fs (%5.2f jobs/s, %d/%d done, %d/%d valid)\n\
    \  speedup=%5.2fx  batches=%d  occupancy=%.1f%%  deferrals=%d  cache=%d hit/%d miss\n"
    sequential_seconds (jps sequential_seconds) !seq_valid n batched_seconds
    (jps batched_seconds) !batch_done n !batch_valid n speedup st.Serve.batches
    (100.0 *. st.Serve.mean_occupancy) st.Serve.deferrals hits misses;
  write_bench ~smoke "BENCH_BATCH.json" "batch-serving"
    [ ( "workload",
        str
          (Printf.sprintf
             "pinned adder/xor/and/or circuits, SA %d reads x %d sweeps, embed tries=%d"
             sa_params.Qac_anneal.Sa.num_reads sa_params.Qac_anneal.Sa.num_sweeps tries) );
      ("topology", str graph.Qac_chimera.Topology.name);
      ("num_jobs", int n);
      ("threads", int threads);
      ("sequential_seconds", num sequential_seconds);
      ("batched_seconds", num batched_seconds);
      ("sequential_jobs_per_sec", num (jps sequential_seconds));
      ("batched_jobs_per_sec", num (jps batched_seconds));
      ("speedup", num speedup);
      ("sequential_valid", int !seq_valid);
      ("batched_done", int !batch_done);
      ("batched_valid", int !batch_valid);
      ("batches", int st.Serve.batches);
      ("mean_occupancy_pct", num (100.0 *. st.Serve.mean_occupancy));
      ("deferrals", int st.Serve.deferrals);
      ("embed_cache_hits", int hits);
      ("embed_cache_misses", int misses) ]

(* --- Sharded serving tier ---------------------------------------------------- *)

(* The mixed workload from [batch_bench] pushed through the Shard pool at 1
   and 4 shards, with affinity vs round-robin routing as the cache
   experiment, plus one arm through the socket front end.  Three claims
   under test: (1) a 1-shard pool costs nothing over the in-process batch
   path; (2) affinity routing beats round-robin on aggregate embed-cache
   hit rate (same-shaped jobs land on the same warm cache); (3) responses
   are bit-identical across every arm — shard count, routing policy and
   the wire change scheduling and placement, never answers. *)
let serve_bench ~smoke ?store_dir () =
  let module P = Qac_core.Pipeline in
  let module Serve = Qac_serve.Serve in
  let module Shard = Qac_serve.Shard in
  let module Server = Qac_serve.Server in
  let module Protocol = Qac_serve.Protocol in
  let module Sampler = Qac_anneal.Sampler in
  let module Hist = Qac_diag.Hist in
  let module Store = Qac_embed.Store in
  let specs = circuit_fleet ~prefix:"s" (if smoke then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ]) in
  let jobs =
    List.mapi
      (fun i (name, w, src) ->
         let program = P.assemble_with_pins ~pins:(fleet_pins i w) (P.compile src) in
         { Serve.id = Printf.sprintf "%s#%d" name i;
           problem = program.Qac_qmasm.Assemble.problem;
           timeout_ms = None })
      specs
  in
  let n = List.length jobs in
  let tries = if smoke then 2 else 8 in
  let sa_params = fleet_sa_params ~smoke in
  let cores = Domain.recommended_domain_count () in
  let threads = min 8 cores in
  let graph = Qac_chimera.Chimera.create 16 in
  let tiler_params = fleet_tiler_params ~tries in
  let solver = P.composite_solve (P.Sa sa_params) in
  Printf.printf
    "sharded serving: %d mixed circuits on %s, SA %d reads x %d sweeps, \
     tries=%d (%d cores)\n"
    n graph.Qac_chimera.Topology.name sa_params.Qac_anneal.Sa.num_reads
    sa_params.Qac_anneal.Sa.num_sweeps tries cores;
  (* Everything that varies with scheduling is zeroed before comparison;
     what's left — status, spins, energies, occurrence counts, read count —
     is the answer, and must not move. *)
  let canon (r : Serve.result) =
    Protocol.json_to_string
      (Protocol.result_to_json
         { r with
           Serve.batch = 0;
           wait_seconds = 0.0;
           solve_seconds = 0.0;
           response =
             Option.map
               (fun resp -> { resp with Sampler.elapsed_seconds = 0.0 })
               r.Serve.response })
  in
  let canon_map results =
    List.fold_left
      (fun acc (r : Serve.result) -> (r.Serve.id, canon r) :: acc)
      [] results
    |> List.sort compare
  in
  let hit_rate stats =
    let hits, lookups =
      Array.fold_left
        (fun (h, l) (s : Shard.shard_stats) ->
           let c = s.Shard.cache in
           (h + c.Qac_embed.Cache.hits,
            l + c.Qac_embed.Cache.hits + c.Qac_embed.Cache.misses))
        (0, 0) stats
    in
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  (* One JSON object per shard: how the affinity experiment actually
     distributed work and cache locality, not just the pool aggregate. *)
  let per_shard_json stats =
    Json.Arr
      (List.map
         (fun (s : Shard.shard_stats) ->
            let c = s.Shard.cache in
            let h = c.Qac_embed.Cache.hits and m = c.Qac_embed.Cache.misses in
            let rate = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
            Json.Obj
              [ ("shard", int s.Shard.shard); ("jobs", int s.Shard.serve.Serve.jobs_done);
                ("cache_hits", int h); ("cache_misses", int m);
                ("store_hits", int c.Qac_embed.Cache.store_hits); ("hit_rate", num rate) ])
         (Array.to_list stats))
  in
  let sum_embed_misses stats =
    Array.fold_left
      (fun acc (s : Shard.shard_stats) -> acc + s.Shard.cache.Qac_embed.Cache.misses)
      0 stats
  in
  (* Baseline: the plain in-process Serve batch path (BENCH_BATCH's
     batched arm), so the 1-shard-overhead claim lives in one file. *)
  let baseline_cache = Qac_embed.Cache.create () in
  let t0 = Unix.gettimeofday () in
  let service =
    Serve.create ~batch_jobs:n ~num_threads:threads ~tiler_params
      ~embed_cache:baseline_cache ~solver ~graph ()
  in
  List.iter (fun job -> Serve.submit service job) jobs;
  let baseline_results = Serve.drain service in
  let baseline_seconds = Unix.gettimeofday () -. t0 in
  let baseline_canon = canon_map baseline_results in
  (* Pool arms: threads divide across shards so every arm gets the same
     core budget — shard scaling must come from parallel batches and
     cache locality, not from quietly using more hardware. *)
  let run_pool ~num_shards ~routing =
    let pool =
      Shard.create ~num_shards ~routing ~batch_jobs:n
        ~num_threads:(max 1 (threads / num_shards))
        ~tiler_params ~solver ~graph ()
    in
    let t0 = Unix.gettimeofday () in
    List.iter (fun job -> ignore (Shard.submit pool job)) jobs;
    let results = List.map snd (Shard.drain pool) in
    let seconds = Unix.gettimeofday () -. t0 in
    let lat = Shard.latency pool in
    let stats = Shard.stats pool in
    (canon_map results, seconds, hit_rate stats,
     1000.0 *. Hist.p50 lat, 1000.0 *. Hist.p99 lat, stats)
  in
  let one_canon, one_seconds, one_hit, one_p50, one_p99, one_stats =
    run_pool ~num_shards:1 ~routing:Shard.Affinity
  in
  let four_canon, four_seconds, four_hit, four_p50, four_p99, four_stats =
    run_pool ~num_shards:4 ~routing:Shard.Affinity
  in
  let rr_canon, rr_seconds, rr_hit, _, _, rr_stats =
    run_pool ~num_shards:4 ~routing:Shard.Round_robin
  in
  (* Socket arm: a 1-shard pool behind the server, driven over a
     Unix-domain socket with pipelined submits then polls. *)
  let sock_path = Filename.temp_file "qac_serve_bench" ".sock" in
  let pool =
    Shard.create ~num_shards:1 ~batch_jobs:n ~num_threads:threads ~tiler_params
      ~solver ~graph ()
  in
  let server = Server.create ~pool ~sockaddr:(Unix.ADDR_UNIX sock_path) () in
  let server_domain = Domain.spawn (fun () -> Server.run server) in
  let fd = Protocol.connect (Unix.ADDR_UNIX sock_path) in
  let t0 = Unix.gettimeofday () in
  let tickets =
    List.map
      (fun job ->
         let rec submit () =
           match Protocol.call fd (Protocol.Submit job) with
           | Protocol.Submitted { ticket; _ } -> ticket
           | Protocol.Busy { retry_after_ms } ->
             Unix.sleepf (retry_after_ms /. 1000.0);
             submit ()
           | _ -> failwith "serve bench: unexpected reply to submit"
         in
         submit ())
      jobs
  in
  let socket_results =
    List.map
      (fun ticket ->
         let rec poll () =
           match Protocol.call fd (Protocol.Poll ticket) with
           | Protocol.Completed r -> r
           | Protocol.Pending ->
             Unix.sleepf 0.002;
             poll ()
           | _ -> failwith "serve bench: unexpected reply to poll"
         in
         poll ())
      tickets
  in
  let socket_seconds = Unix.gettimeofday () -. t0 in
  (match Protocol.call fd Protocol.Shutdown with
   | Protocol.Shutdown_ok -> ()
   | _ -> failwith "serve bench: unexpected reply to shutdown");
  Unix.close fd;
  ignore (Domain.join server_domain);
  let socket_canon = canon_map socket_results in
  (* Store arms: the same workload rebuilt from Verilog source against a
     persistent artifact store.  The cold arm pays parse->assemble->embed
     and seeds the store; the warm arm re-opens the same directory through
     a brand-new handle — a restarted process — and must find every
     compiled problem and embedding on disk.  Timing covers the front half
     too (snapshot-or-compile), which is exactly what a restart saves. *)
  let snapshot_key src pins =
    Digest.string
      (String.concat "\x00"
         (src :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) pins))
  in
  let run_store_arm store =
    let cc = P.compile_cache_create () in
    let snap_hits = ref 0 and snap_misses = ref 0 in
    let t0 = Unix.gettimeofday () in
    let arm_jobs =
      List.mapi
        (fun i (name, w, src) ->
           let pins = fleet_pins i w in
           let key = snapshot_key src pins in
           let problem =
             match Store.find_problem store key with
             | Some p ->
               incr snap_hits;
               p
             | None ->
               incr snap_misses;
               let t = P.compile_cached ~cache:cc src in
               let program = P.assemble_with_pins ~pins t in
               Store.put_problem store key program.Qac_qmasm.Assemble.problem;
               program.Qac_qmasm.Assemble.problem
           in
           { Serve.id = Printf.sprintf "%s#%d" name i; problem; timeout_ms = None })
        specs
    in
    let pool =
      Shard.create ~num_shards:4 ~routing:Shard.Affinity ~batch_jobs:n
        ~num_threads:(max 1 (threads / 4))
        ~tiler_params ~store ~solver ~graph ()
    in
    List.iter (fun job -> ignore (Shard.submit pool job)) arm_jobs;
    let results = List.map snd (Shard.drain pool) in
    let seconds = Unix.gettimeofday () -. t0 in
    let stats = Shard.stats pool in
    (canon_map results, seconds, !snap_hits, !snap_misses,
     sum_embed_misses stats, hit_rate stats)
  in
  let store_path =
    match store_dir with
    | Some d -> d
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qac_store_bench.%d" (Unix.getpid ()))
  in
  let cold_canon, cold_seconds, cold_snap_hits, cold_snap_misses,
      cold_embed_misses, cold_hit =
    run_store_arm (Store.open_dir store_path)
  in
  let warm_canon, warm_seconds, warm_snap_hits, warm_snap_misses,
      warm_embed_misses, warm_hit =
    run_store_arm (Store.open_dir store_path)
  in
  let store_stats = Store.stats (Store.open_dir ~readonly:true store_path) in
  let warm_speedup = cold_seconds /. warm_seconds in
  (* Duplicate-heavy arm: each of the first [dup_unique] jobs submitted 4x.
     Coalescing must collapse every group onto one leader: exactly one
     solve per unique problem, every follower answered with the leader's
     bit-identical response.  An idle scheduler dispatches as soon as the
     queue fills its threads, so a blocker job is held in flight first: the
     pool's solves wait at a turnstile until every duplicate is submitted,
     and the whole group attaches before any solve. *)
  let dup_base = List.filteri (fun i _ -> i < 8) jobs in
  let dup_unique = List.length dup_base in
  let dup_copies = 4 in
  let dup_jobs =
    List.concat_map
      (fun (j : Serve.job) ->
         List.init dup_copies (fun k ->
           if k = 0 then j
           else { j with Serve.id = Printf.sprintf "%s~d%d" j.Serve.id k }))
      dup_base
  in
  let entered = Semaphore.Binary.make false and turnstile = Semaphore.Binary.make false in
  let gated ~deadline p =
    Semaphore.Binary.release entered;
    Semaphore.Binary.acquire turnstile;
    Semaphore.Binary.release turnstile;
    solver ~deadline p
  in
  let dup_pool =
    Shard.create ~num_shards:1 ~batch_jobs:(List.length dup_jobs + 1)
      ~batch_window_s:0.25 ~num_threads:threads ~tiler_params ~solver:gated ~graph ()
  in
  let blocker =
    { Serve.id = "blocker";
      problem =
        Qac_ising.Problem.create ~num_vars:2 ~h:[| 0.5; -0.25 |] ~j:[ ((0, 1), -1.0) ] ();
      timeout_ms = None }
  in
  ignore (Shard.submit dup_pool blocker);
  Semaphore.Binary.acquire entered;
  let dt0 = Unix.gettimeofday () in
  List.iter (fun job -> ignore (Shard.submit dup_pool job)) dup_jobs;
  Semaphore.Binary.release turnstile;
  let dup_results =
    List.filter
      (fun (r : Serve.result) -> r.Serve.id <> blocker.Serve.id)
      (List.map snd (Shard.drain dup_pool))
  in
  let dup_seconds = Unix.gettimeofday () -. dt0 in
  let dup_sv = (Shard.stats dup_pool).(0).Shard.serve in
  let dup_placed = dup_sv.Serve.placed - 1 (* the blocker *) in
  let dup_coalesced = dup_sv.Serve.coalesced in
  let base_id id =
    match String.index_opt id '~' with
    | Some k -> String.sub id 0 k
    | None -> id
  in
  let dup_canon =
    List.map
      (fun (r : Serve.result) ->
         (base_id r.Serve.id, canon { r with Serve.id = base_id r.Serve.id }))
      dup_results
    |> List.sort_uniq compare
  in
  let dup_identical =
    List.length dup_canon = dup_unique
    && List.for_all (fun entry -> List.mem entry baseline_canon) dup_canon
  in
  let dup_one_solve =
    dup_placed = dup_unique && dup_coalesced = (dup_copies - 1) * dup_unique
  in
  let deterministic =
    List.for_all
      (fun c -> c = baseline_canon)
      [ one_canon; four_canon; rr_canon; socket_canon; cold_canon; warm_canon ]
  in
  let jps s = float_of_int n /. s in
  Printf.printf
    "  in-process batch:   %6.2fs (%5.2f jobs/s)\n\
    \  1 shard:            %6.2fs (%5.2f jobs/s, p50 %.0f ms, p99 %.0f ms, \
     cache hit %.0f%%)\n\
    \  4 shards affinity:  %6.2fs (%5.2f jobs/s, p50 %.0f ms, p99 %.0f ms, \
     cache hit %.0f%%)\n\
    \  4 shards rr:        %6.2fs (%5.2f jobs/s, cache hit %.0f%%)\n\
    \  socket (1 shard):   %6.2fs (%5.2f jobs/s)\n\
    \  cold store:         %6.2fs (%5.2f jobs/s, %d snapshot hits, %d misses, \
     %d embed misses)\n\
    \  warm restart:       %6.2fs (%5.2f jobs/s, %d snapshot hits, %d misses, \
     %d embed misses) -> %.2fx\n\
    \  duplicate-heavy:    %6.2fs (%d submitted, %d placed, %d coalesced)\n\
    \  responses bit-identical across arms: %b\n"
    baseline_seconds (jps baseline_seconds) one_seconds (jps one_seconds) one_p50
    one_p99 (100.0 *. one_hit) four_seconds (jps four_seconds) four_p50 four_p99
    (100.0 *. four_hit) rr_seconds (jps rr_seconds) (100.0 *. rr_hit)
    socket_seconds (jps socket_seconds)
    cold_seconds (jps cold_seconds) cold_snap_hits cold_snap_misses
    cold_embed_misses
    warm_seconds (jps warm_seconds) warm_snap_hits warm_snap_misses
    warm_embed_misses warm_speedup
    dup_seconds (List.length dup_jobs) dup_placed dup_coalesced deterministic;
  if not deterministic then failwith "serve bench: responses diverged across arms";
  if not dup_one_solve then
    failwith
      (Printf.sprintf
         "serve bench: duplicate-heavy arm expected %d placed / %d coalesced, \
          got %d / %d"
         dup_unique ((dup_copies - 1) * dup_unique) dup_placed dup_coalesced);
  if not dup_identical then
    failwith "serve bench: coalesced followers diverged from their leaders";
  let arm seconds rest =
    Json.Obj (("seconds", num seconds) :: ("jobs_per_sec", num (jps seconds)) :: rest)
  in
  let store_arm seconds snap_hits snap_misses embed_misses hit =
    arm seconds
      [ ("problem_snapshot_hits", int snap_hits);
        ("problem_snapshot_misses", int snap_misses);
        ("embed_misses", int embed_misses); ("cache_hit_rate", num hit) ]
  in
  write_bench ~smoke "BENCH_SERVE.json" "sharded-serving"
    [ ( "workload",
        str
          (Printf.sprintf
             "mixed %d-circuit add/xor/and/or, SA %d reads x %d sweeps, embed tries=%d" n
             sa_params.Qac_anneal.Sa.num_reads sa_params.Qac_anneal.Sa.num_sweeps tries) );
      ("topology", str graph.Qac_chimera.Topology.name);
      ("num_jobs", int n);
      ("total_threads", int threads);
      ("note", str "every arm shares the same core budget; threads divide across shards");
      ("inproc_batch", arm baseline_seconds []);
      ( "one_shard",
        arm one_seconds
          [ ("p50_ms", num one_p50); ("p99_ms", num one_p99);
            ("cache_hit_rate", num one_hit); ("per_shard", per_shard_json one_stats) ] );
      ( "four_shard_affinity",
        arm four_seconds
          [ ("p50_ms", num four_p50); ("p99_ms", num four_p99);
            ("cache_hit_rate", num four_hit); ("per_shard", per_shard_json four_stats) ] );
      ( "four_shard_round_robin",
        arm rr_seconds
          [ ("cache_hit_rate", num rr_hit); ("per_shard", per_shard_json rr_stats) ] );
      ("socket_one_shard", arm socket_seconds []);
      ( "store",
        Json.Obj
          [ ("dir", str store_path);
            ( "cold",
              store_arm cold_seconds cold_snap_hits cold_snap_misses cold_embed_misses
                cold_hit );
            ( "warm_restart",
              store_arm warm_seconds warm_snap_hits warm_snap_misses warm_embed_misses
                warm_hit );
            ("warm_speedup", num warm_speedup);
            ("warm_zero_embed_misses", bool (warm_embed_misses = 0));
            ( "artifacts",
              Json.Obj
                [ ("embeddings", int store_stats.Store.embeddings);
                  ("problems", int store_stats.Store.problems) ] ) ] );
      ( "duplicate_heavy",
        Json.Obj
          [ ("seconds", num dup_seconds); ("submitted", int (List.length dup_jobs));
            ("unique", int dup_unique); ("placed", int dup_placed);
            ("coalesced", int dup_coalesced); ("one_solve_per_unique", bool dup_one_solve);
            ("bit_identical_responses", bool dup_identical) ] );
      ("deterministic_across_arms", bool deterministic) ]

(* --- Pegasus vs Chimera ------------------------------------------------------ *)

(* Size pairs are matched by working-qubit budget, not by the size
   parameter: C4 has 128 qubits and P3 128 working (8(m-1)(3m-1)); C8 has
   512 and P5 448.  Pegasus's degree-15 fabric should buy shorter chains on
   the same circuits — the acceptance bar is max chain <= the Chimera
   baseline on the E1-style circuit. *)
let pegasus_bench ~smoke () =
  let module P = Qac_core.Pipeline in
  let module Embedding = Qac_embed.Embedding in
  let module Cmr = Qac_embed.Cmr in
  let module Serve = Qac_serve.Serve in
  let module Tiler = Qac_embed.Tiler in
  let module Topology = Qac_chimera.Topology in
  let fig2_src =
    "module circuit (s, a, b, c); input s, a, b; output [1:0] c; assign c = s ? a + b : a - b; endmodule"
  in
  let fig2 = Qac_core.Pipeline.compile fig2_src in
  let fig2_problem = fig2.P.program.Qac_qmasm.Assemble.problem in
  (* (name, problem, chimera sizes to try, pegasus sizes to try): the first
     size that embeds is reported, so a hard seed cannot sink the bench. *)
  let cases =
    if smoke then [ ("fig2-e1", fig2_problem, [ 4; 5 ], [ 3; 4 ]) ]
    else
      [ ("fig2-e1", fig2_problem, [ 4; 5 ], [ 3; 4 ]);
        ("mult3x3", multiplier_problem (), [ 8; 9 ], [ 5; 6 ]) ]
  in
  let embed_stats graph problem =
    let params = { (Cmr.params_for graph) with Cmr.seed = 5 } in
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    match Cmr.find ~params graph problem with
    | None -> None
    | Some e ->
      let seconds = Unix.gettimeofday () -. t0 in
      (match Embedding.verify graph problem e with
       | Ok () -> ()
       | Error msg -> failwith ("pegasus bench: invalid embedding: " ^ msg));
      let qubits = Embedding.num_physical_qubits e in
      let chains = Array.length e.Embedding.chains in
      Some
        ( seconds,
          qubits,
          Embedding.max_chain_length e,
          float_of_int qubits /. float_of_int (max 1 chains) )
  in
  let rec first_embedding build problem = function
    | [] -> failwith "pegasus bench: no size embedded the circuit"
    | m :: rest ->
      let graph = build m in
      (match embed_stats graph problem with
       | Some stats -> (graph, stats)
       | None -> first_embedding build problem rest)
  in
  Printf.printf
    "pegasus vs chimera: CMR embedding at matched working-qubit budgets\n\
     (params_for retune: degree-15 fabrics get tries=16 passes=16)\n";
  let all_within = ref true in
  let embed_rows =
    List.map
      (fun (name, problem, chimera_sizes, pegasus_sizes) ->
         let cg, (cs, cq, cmax, cmean) =
           first_embedding (fun m -> Qac_chimera.Chimera.create m) problem chimera_sizes
         in
         let pg, (ps, pq, pmax, pmean) =
           first_embedding (fun m -> Qac_chimera.Pegasus.create m) problem pegasus_sizes
         in
         if pmax > cmax then all_within := false;
         Printf.printf
           "  %-9s n=%-3d  %-14s %3d qb  max-chain=%d  mean=%.2f  %.3fs   %-10s %3d qb  \
            max-chain=%d  mean=%.2f  %.3fs\n"
           name problem.Qac_ising.Problem.num_vars cg.Topology.name cq cmax cmean cs
           pg.Topology.name pq pmax pmean ps;
         let fabric g qubits max_chain mean_chain seconds =
           Json.Obj
             [ ("graph", str g.Topology.name);
               ("working_qubits", int (Topology.num_working_qubits g));
               ("embedding_qubits", int qubits); ("max_chain", int max_chain);
               ("mean_chain", num mean_chain); ("embed_seconds", num seconds) ]
         in
         Json.Obj
           [ ("circuit", str name); ("logical_vars", int problem.Qac_ising.Problem.num_vars);
             ("chimera", fabric cg cq cmax cmean cs); ("pegasus", fabric pg pq pmax pmean ps);
             ("pegasus_max_chain_le_chimera", bool (pmax <= cmax)) ])
      cases
  in
  (* Native K4: on Pegasus a 4-clique embeds with unit chains; on Chimera
     even K3 needs a chain (the fabric is bipartite). *)
  let p2 = Qac_chimera.Pegasus.create 2 in
  let k4_unit_chains =
    match Qac_embed.Clique.embed p2 ~n:4 with
    | Some e ->
      Array.for_all (fun chain -> Array.length chain = 1) e.Qac_embed.Embedding.chains
    | None -> false
  in
  Printf.printf "  native K4 on P2 with unit chains: %b\n" k4_unit_chains;
  (* End-to-end: compile once, then Pipeline.run fig2 forward on each
     fabric. *)
  (* The e2e arm gets a fixed SA budget even in smoke mode (it is <1s):
     with the smoke read count the run rarely finds a valid solution, and a
     latency number for a failed solve compares nothing. *)
  let e2e_params =
    { Qac_anneal.Sa.default_params with
      Qac_anneal.Sa.num_reads = 100;
      num_sweeps = 500;
      seed = 42 }
  in
  let e2e graph =
    let t0 = Unix.gettimeofday () in
    let r =
      P.run fig2
        ~pins:[ ("s", 1); ("a", 1); ("b", 1) ]
        ~solver:(P.Sa e2e_params)
        ~target:
          (P.Physical
             { graph; embed_params = None; chain_strength = None; roof_duality = false })
    in
    (Unix.gettimeofday () -. t0, P.valid_solutions r <> [])
  in
  let chimera_e2e_seconds, chimera_e2e_valid = e2e (Qac_chimera.Chimera.create 4) in
  let pegasus_e2e_seconds, pegasus_e2e_valid = e2e (Qac_chimera.Pegasus.create 3) in
  Printf.printf
    "  e2e fig2: chimera-4x4x4 %.3fs (valid=%b)   pegasus-3 %.3fs (valid=%b)\n"
    chimera_e2e_seconds chimera_e2e_valid pegasus_e2e_seconds pegasus_e2e_valid;
  (* Tiled serving on Pegasus: a multi-job batch must place, solve, and
     drain with every job Done — the serve-side acceptance criterion. *)
  let serve_jobs =
    List.map
      (fun (name, w, src) -> (name, w, P.compile src))
      (circuit_fleet ~prefix:"p" (if smoke then [ 1 ] else [ 1; 2 ]))
  in
  let serve_graph = Qac_chimera.Pegasus.create (if smoke then 5 else 6) in
  let tiler_params = { Tiler.default_params with Tiler.slack = 6.0 } in
  let solver = P.composite_solve (P.Sa (fleet_sa_params ~smoke)) in
  let threads = min 4 (Domain.recommended_domain_count ()) in
  let njobs = List.length serve_jobs in
  let t0 = Unix.gettimeofday () in
  let service =
    Serve.create ~batch_jobs:njobs ~num_threads:threads ~tiler_params
      ~embed_cache:(Qac_embed.Cache.create ()) ~solver ~graph:serve_graph ()
  in
  List.iteri
    (fun i (name, w, t) ->
       let program = P.assemble_with_pins ~pins:(fleet_pins i w) t in
       Serve.submit service
         { Serve.id = Printf.sprintf "%s#%d" name i;
           problem = program.Qac_qmasm.Assemble.problem;
           timeout_ms = None })
    serve_jobs;
  let results = Serve.drain service in
  let serve_seconds = Unix.gettimeofday () -. t0 in
  let serve_done =
    List.length (List.filter (fun (r : Serve.result) -> r.Serve.status = Serve.Done) results)
  in
  let st = Serve.stats service in
  Printf.printf
    "  serve on %s: %d/%d done in %.2fs (%d batches, occupancy %.1f%%, %d deferrals)\n"
    serve_graph.Topology.name serve_done njobs serve_seconds st.Serve.batches
    (100.0 *. st.Serve.mean_occupancy) st.Serve.deferrals;
  (* Cell library under the Advantage coefficient box (h in [-4,4], J in
     [-1,1]): rerun the LP per cell and compare gaps with the 2000Q box. *)
  let module Gen = Qac_cellgen.Gen in
  let module Truthtab = Qac_cellgen.Truthtab in
  let cell_tables =
    [ ("AND", Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) && v.(1)));
      ("OR", Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) || v.(1)));
      ("XOR", Truthtab.of_function ~num_inputs:2 (fun v -> v.(0) <> v.(1)));
      ("MUX", Truthtab.of_function ~num_inputs:3 (fun v -> if v.(0) then v.(2) else v.(1)));
      ("AOI3", Truthtab.of_function ~num_inputs:3 (fun v -> not ((v.(0) && v.(1)) || v.(2))))
    ]
  in
  let cell_rows =
    List.map
      (fun (name, table) ->
         let gap_of range =
           match Gen.derive ~range table with
           | Some d ->
             if not (Gen.verify d) then
               failwith ("pegasus bench: cell " ^ name ^ " failed verification");
             (d.Gen.gap, d.Gen.num_ancillas)
           | None -> failwith ("pegasus bench: cell " ^ name ^ " underivable")
         in
         let gap_2000q, anc_2000q = gap_of Qac_ising.Scale.dwave_2000q in
         let gap_adv, anc_adv = gap_of Qac_ising.Scale.advantage in
         Printf.printf
           "  cell %-5s gap: 2000q=%g (%d anc)  advantage=%g (%d anc)\n" name gap_2000q
           anc_2000q gap_adv anc_adv;
         Json.Obj
           [ ("cell", str name); ("gap_2000q", num gap_2000q);
             ("ancillas_2000q", int anc_2000q); ("gap_advantage", num gap_adv);
             ("ancillas_advantage", int anc_adv) ])
      cell_tables
  in
  write_bench ~smoke "BENCH_PEGASUS.json" "pegasus-vs-chimera"
    [ ( "workload",
        str
          "CMR embedding, end-to-end Pipeline.run, tiled Serve batch, and LP cell \
           rederivation on Pegasus vs Chimera at matched working-qubit budgets" );
      ("embeddings", Json.Arr embed_rows);
      ("all_max_chains_within_chimera_baseline", bool !all_within);
      ("native_k4_unit_chains", bool k4_unit_chains);
      ( "e2e",
        Json.Obj
          [ ("circuit", str "fig2-e1"); ("reads", int e2e_params.Qac_anneal.Sa.num_reads);
            ("sweeps", int e2e_params.Qac_anneal.Sa.num_sweeps);
            ("note", str "fixed SA budget in both modes");
            ("chimera_seconds", num chimera_e2e_seconds);
            ("chimera_valid", bool chimera_e2e_valid);
            ("pegasus_seconds", num pegasus_e2e_seconds);
            ("pegasus_valid", bool pegasus_e2e_valid) ] );
      ( "serve",
        Json.Obj
          [ ("graph", str serve_graph.Topology.name); ("jobs", int njobs);
            ("done", int serve_done); ("seconds", num serve_seconds);
            ("batches", int st.Serve.batches);
            ("mean_occupancy_pct", num (100.0 *. st.Serve.mean_occupancy));
            ("deferrals", int st.Serve.deferrals); ("threads", int threads) ] );
      ("cells", Json.Arr cell_rows) ]

(* --- SAT workload through the serving tier --------------------------------- *)

(* Planted random 3-SAT, batch-served through the tiler on Chimera and
   Pegasus.  All instances share one clause skeleton (which variables pair
   up) and differ only in literal polarities and weights' signs — a gauge
   change that preserves the compiled problem's coupler structure, so the
   whole batch shares a single embedding-cache entry per graph: one CMR
   solve, N-1 hits.  Reported per graph: solved fraction (best decoded
   read violates nothing) and jobs/s. *)
let sat_bench ~smoke () =
  let module Dimacs = Qac_sat.Dimacs in
  let module Compile = Qac_sat.Compile in
  let module Serve = Qac_serve.Serve in
  let module Tiler = Qac_embed.Tiler in
  let module Cache = Qac_embed.Cache in
  let module Topology = Qac_chimera.Topology in
  let module Sampler = Qac_anneal.Sampler in
  let module P = Qac_core.Pipeline in
  let num_instances = if smoke then 8 else 32 in
  let n = if smoke then 8 else 14 in
  let m = if smoke then 26 else 49 in
  let rng = Random.State.make [| 421 |] in
  (* one skeleton of distinct-variable triples for every instance *)
  let skeleton =
    Array.init m (fun _ ->
        let a = Random.State.int rng n in
        let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
        let rec pick () =
          let c = Random.State.int rng n in
          if c = a || c = b then pick () else c
        in
        (a, b, pick ()))
  in
  (* Each instance is a fresh per-variable gauge of the all-positive
     skeleton: literal polarities follow the gauge, so the instance is
     satisfied exactly by the (hidden) gauge assignment.  A gauge flips
     coefficient signs but cancels couplers gauge-invariantly, so every
     instance compiles to the same coupler structure — the whole batch
     shares one embedding-cache entry per graph by construction. *)
  let planted_instance () =
    let gauge = Array.init n (fun _ -> Random.State.bool rng) in
    let clauses =
      Array.map
        (fun (a, b, c) ->
           let lits =
             Array.map
               (fun v -> if gauge.(v) then v + 1 else -(v + 1))
               [| a; b; c |]
           in
           { Dimacs.lits; weight = Dimacs.Hard })
        skeleton
    in
    { Dimacs.num_vars = n; clauses; mode = Dimacs.Cnf; top = None }
  in
  let compiled = Array.init num_instances (fun _ -> Compile.compile (planted_instance ())) in
  let digest0 = Cache.structure_digest compiled.(0).Compile.problem in
  let shared_structure =
    Array.for_all
      (fun (c : Compile.t) -> Cache.structure_digest c.Compile.problem = digest0)
      compiled
  in
  Printf.printf
    "planted 3-SAT: %d instances, n=%d m=%d -> %d spins, %d couplers each \
     (shared structure: %b)\n"
    num_instances n m
    compiled.(0).Compile.problem.Qac_ising.Problem.num_vars
    (Array.length compiled.(0).Compile.problem.Qac_ising.Problem.couplers)
    shared_structure;
  let sa_params =
    { Qac_anneal.Sa.default_params with
      Qac_anneal.Sa.num_reads = (if smoke then 12 else 32);
      num_sweeps = (if smoke then 100 else 400);
      seed = 42 }
  in
  let solver = P.composite_solve (P.Sa sa_params) in
  let threads = min 4 (Domain.recommended_domain_count ()) in
  let tiler_params = { Tiler.default_params with Tiler.slack = 6.0 } in
  let run_graph graph =
    let embed_cache = Cache.create () in
    let t0 = Unix.gettimeofday () in
    let service =
      Serve.create ~batch_jobs:num_instances ~num_threads:threads ~tiler_params
        ~embed_cache ~solver ~graph ()
    in
    Array.iteri
      (fun i (c : Compile.t) ->
         Serve.submit service
           { Serve.id = string_of_int i; problem = c.Compile.problem; timeout_ms = None })
      compiled;
    let results = Serve.drain service in
    let seconds = Unix.gettimeofday () -. t0 in
    let st = Serve.stats service in
    let cache = Cache.stats embed_cache in
    let served = ref 0 and solved = ref 0 in
    List.iter
      (fun (r : Serve.result) ->
         match r.Serve.status, r.Serve.response with
         | Serve.Done, Some resp ->
           incr served;
           let c = compiled.(int_of_string r.Serve.id) in
           let best_violations =
             List.fold_left
               (fun acc (s : Sampler.sample) ->
                  let a = Compile.decode c s.Sampler.spins in
                  min acc (fst (Dimacs.violations c.Compile.formula a)))
               max_int resp.Sampler.samples
           in
           if best_violations = 0 then incr solved
         | _ -> ())
      results;
    let solved_fraction = float_of_int !solved /. float_of_int num_instances in
    Printf.printf
      "  %-14s %d/%d done, solved %d/%d (%.0f%%), %.2f jobs/s, %d batches, \
       occupancy %.1f%%, embed cache %d hit / %d miss\n"
      graph.Topology.name !served num_instances !solved num_instances
      (100.0 *. solved_fraction) st.Serve.jobs_per_second st.Serve.batches
      (100.0 *. st.Serve.mean_occupancy) cache.Cache.hits cache.Cache.misses;
    Json.Obj
      [ ("graph", str graph.Topology.name); ("jobs", int num_instances);
        ("done", int !served); ("solved", int !solved);
        ("solved_fraction", num solved_fraction);
        ("jobs_per_second", num st.Serve.jobs_per_second); ("seconds", num seconds);
        ("batches", int st.Serve.batches);
        ("mean_occupancy_pct", num (100.0 *. st.Serve.mean_occupancy));
        ("embed_cache_hits", int cache.Cache.hits);
        ("embed_cache_misses", int cache.Cache.misses) ]
  in
  let graphs =
    if smoke then [ Qac_chimera.Chimera.create 6; Qac_chimera.Pegasus.create 4 ]
    else [ Qac_chimera.Chimera.create 16; Qac_chimera.Pegasus.create 6 ]
  in
  write_bench ~smoke "BENCH_SAT.json" "sat-serve"
    [ ( "workload",
        str
          "planted random 3-SAT (per-instance variable gauges of one all-positive \
           clause skeleton) compiled to Ising penalties and batch-served through the \
           tiler; gauge changes preserve coupler structure, so every job shares the \
           embedding-cache entry" );
      ("instances", int num_instances); ("variables", int n); ("clauses", int m);
      ("spins_per_instance", int compiled.(0).Compile.problem.Qac_ising.Problem.num_vars);
      ("shared_structure_digest", bool shared_structure);
      ( "sa",
        Json.Obj
          [ ("reads", int sa_params.Qac_anneal.Sa.num_reads);
            ("sweeps", int sa_params.Qac_anneal.Sa.num_sweeps) ] );
      ("threads", int threads);
      ("graphs", Json.Arr (List.map run_graph graphs)) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "bechamel" ] -> bechamel ()
  | [ "trace" ] -> trace_breakdown ()
  | [ "parallel" ] -> parallel_scaling ()
  | "kernel" :: rest -> kernel_bench ~smoke:(rest = [ "smoke" ]) ()
  | "embed" :: rest -> embed_bench ~smoke:(rest = [ "smoke" ]) ()
  | "batch" :: rest -> batch_bench ~smoke:(rest = [ "smoke" ]) ()
  | "serve" :: rest ->
    (* serve [smoke] [--store DIR]: DIR persists artifacts across runs, so
       CI can assert that a second invocation restarts warm. *)
    let rec parse smoke store_dir = function
      | [] -> (smoke, store_dir)
      | "smoke" :: rest -> parse true store_dir rest
      | "--store" :: dir :: rest -> parse smoke (Some dir) rest
      | arg :: _ -> failwith ("serve bench: unknown argument " ^ arg)
    in
    let smoke, store_dir = parse false None rest in
    serve_bench ~smoke ?store_dir ()
  | "pegasus" :: rest -> pegasus_bench ~smoke:(rest = [ "smoke" ]) ()
  | "sat" :: rest -> sat_bench ~smoke:(rest = [ "smoke" ]) ()
  | ids -> run_experiments ids
