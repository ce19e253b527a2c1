(** vqa — "Verilog to quantum annealer", the end-to-end compiler/runner CLI.

    Subcommands:
    - [compile]: Verilog -> EDIF / QMASM / MiniZinc on stdout;
    - [run]: compile and execute, forward or backward, with [--pin];
    - [sat]: solve a DIMACS CNF/WCNF formula;
    - [qmasm]: assemble and run a standalone QMASM program;
    - [serve]: batch-serve a job file, tiling jobs together onto one graph;
    - [client]: submit jobs to a running server;
    - [cells]: print the Table 5 standard-cell library with verification;
    - [stats]: the section 6.1 static properties of a module. *)

open Cmdliner
module P = Qac_core.Pipeline
module Trace = Qac_diag.Trace

(* A directory reads as a [Sys_error] naming it, not the platform's
   "Value too large for defined data type". *)
let read_file path =
  if Sys.is_directory path then raise (Sys_error (path ^ ": is a directory"));
  In_channel.with_open_bin path In_channel.input_all

(* A bad setting or option combination: cmdliner prints the usage line
   under the message. *)
exception Usage of string

(* The one error handler every subcommand runs under: each expected
   failure becomes a single "vqa: ..." line and exit 124, never an
   uncaught exception. *)
let handle_errors f =
  try f (); `Ok () with
  | Usage msg -> `Error (true, msg)
  | Qac_diag.Diag.Error d -> `Error (false, Qac_diag.Diag.to_string d)
  | Qac_serve.Protocol.Protocol_error msg -> `Error (false, "protocol: " ^ msg)
  | Failure msg | Sys_error msg -> `Error (false, msg)
  | Unix.Unix_error (e, fn, _) ->
    `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e))

(* --- Shared arguments --------------------------------------------------- *)

let file_arg doc = Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc)

let src_arg = file_arg "Verilog source file."

let top_arg =
  let doc = "Top module name (default: the last module in the file)." in
  Arg.(value & opt (some string) None & info [ "top" ] ~docv:"MODULE" ~doc)

let steps_arg =
  let doc = "Unroll depth for sequential designs (section 4.3.3)." in
  Arg.(value & opt (some int) None & info [ "steps" ] ~docv:"N" ~doc)

let no_optimize_arg =
  let doc = "Skip netlist optimization (dead-gate elimination, tech mapping)." in
  Arg.(value & flag & info [ "no-optimize" ] ~doc)

(* Memoized: repeated compiles of one source (many jobs, one design) hit
   the process-wide compile cache. *)
let compile ?top ?steps ~optimize ?trace path =
  P.compile_cached ?top ?steps ~optimize ?trace (read_file path)

let store_arg =
  let doc =
    "Persistent artifact store: compiled problems and minor embeddings are \
     snapshotted into $(docv) as content-addressed, versioned binary \
     records and reloaded by later runs — a restarted server starts warm.  \
     Created if missing; corrupt or version-mismatched records are \
     ignored, never fatal."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

(* --- Tracing -------------------------------------------------------------- *)

let trace_arg =
  let doc = "Print one timed span per pipeline stage (with size counters) to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_json_arg =
  let doc = "Like --trace, but emit machine-readable JSON." in
  Arg.(value & flag & info [ "trace-json" ] ~doc)

let make_trace ~trace ~trace_json =
  if trace || trace_json then Some (Trace.create ()) else None

let emit_trace ~trace_json = function
  | None -> ()
  | Some tr ->
    if trace_json then prerr_endline (Trace.to_json tr)
    else prerr_string (Trace.to_text tr)

(* --- compile ------------------------------------------------------------- *)

let format_arg =
  let doc = "Output format: qmasm (default), edif, minizinc, or stdcell." in
  Arg.(value & opt (enum [ ("qmasm", `Qmasm); ("edif", `Edif); ("minizinc", `Minizinc);
                           ("stdcell", `Stdcell) ]) `Qmasm
       & info [ "f"; "format" ] ~docv:"FORMAT" ~doc)

let compile_cmd =
  let run src top steps no_optimize format trace trace_json =
    handle_errors @@ fun () ->
    (match format with
     | `Stdcell -> print_string (Qac_cells.Stdcell.contents ())
     | _ ->
       let tr = make_trace ~trace ~trace_json in
       let t = compile ?top ?steps ~optimize:(not no_optimize) ?trace:tr src in
       (match format with
        | `Qmasm -> print_string t.P.qmasm_src
        | `Edif -> print_string (Qac_edif.Edif.to_string t.P.netlist)
        | `Minizinc -> print_string (Qac_qmasm.Qmasm.to_minizinc t.P.program)
        | `Stdcell -> assert false);
       emit_trace ~trace_json tr)
  in
  let doc = "compile Verilog to EDIF, QMASM or MiniZinc" in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(ret (const run $ src_arg $ top_arg $ steps_arg $ no_optimize_arg $ format_arg
               $ trace_arg $ trace_json_arg))

(* --- run ------------------------------------------------------------------ *)

let pins_arg =
  let doc =
    "Pin a port to a value, e.g. --pin 'C[7:0] := 10001111' or --pin 'valid := true' \
     or the shorthand --pin C=143.  Repeatable.  Pin outputs to run backward \
     (section 4.3.6)."
  in
  Arg.(value & opt_all string [] & info [ "pin" ] ~docv:"PIN" ~doc)

let solver_arg =
  let doc = "Solver: exact, sa, sqa, tabu or qbsolv." in
  Arg.(value & opt (enum [ ("exact", `Exact); ("sa", `Sa); ("sqa", `Sqa); ("tabu", `Tabu);
                           ("qbsolv", `Qbsolv) ]) `Sa
       & info [ "solver" ] ~docv:"SOLVER" ~doc)

let reads_arg =
  let doc = "Number of annealing reads (SA)." in
  Arg.(value & opt int 200 & info [ "reads" ] ~docv:"N" ~doc)

let sweeps_arg =
  let doc = "Sweeps per read (SA)." in
  Arg.(value & opt int 1000 & info [ "sweeps" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Deadline for the solve stage, in milliseconds.  Samplers check it \
     between sweeps and return best-so-far partial results; a hit is \
     reported on the output and in the trace."
  in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let physical_arg ?(default = 0)
    ?(doc =
      "Minor-embed into a size-$(docv) hardware graph before solving, on the \
       same capacity ladder $(b,serve) tiles with (0 = solve the logical \
       problem directly).  The graph family comes from --topology: Chimera \
       C$(docv) or Pegasus P$(docv).") () =
  Arg.(value & opt int default & info [ "physical" ] ~docv:"M" ~doc)

let topology_arg =
  let doc = "Hardware graph family for --physical: $(b,chimera) or $(b,pegasus)." in
  Arg.(value
       & opt (enum [ ("chimera", `Chimera); ("pegasus", `Pegasus) ]) `Chimera
       & info [ "topology" ] ~docv:"FAMILY" ~doc)

let broken_arg =
  let doc =
    "Comma-separated broken qubit ids, excluded from embedding and tiling \
     (models hardware drop-out; honored by every --topology)."
  in
  Arg.(value & opt (list int) [] & info [ "broken" ] ~docv:"QUBITS" ~doc)

(* The one hardware-graph term: --physical, --topology and --broken become
   [Some graph], or [None] for --physical 0.  A size the family cannot
   build is a usage error. *)
let graph_term ?default ?doc () =
  let make m topology broken =
    try
      Ok
        (match (m, topology) with
         | 0, _ -> None
         | _, `Chimera -> Some (Qac_chimera.Chimera.create ~broken m)
         | _, `Pegasus -> Some (Qac_chimera.Pegasus.create ~broken m))
    with Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(term_result ~usage:true
          (const make $ physical_arg ?default ?doc () $ topology_arg $ broken_arg))

let roof_arg =
  let doc = "Apply roof duality to elide determined qubits before embedding." in
  Arg.(value & flag & info [ "roof-duality" ] ~doc)

let all_arg =
  let doc = "Show every distinct sample, not just valid solutions." in
  Arg.(value & flag & info [ "all" ] ~doc)

let threads_arg =
  let doc =
    "Split annealing reads (SA/SQA/tabu) and the embedding ladder's CMR \
     tries (--physical) across $(docv) OCaml domains.  $(b,serve) solves \
     up to $(docv) jobs of a batch at once and gives threads its jobs \
     leave idle to their CMR tries.  Results are deterministic for a given \
     seed, whatever the thread count."
  in
  Arg.(value & opt int 1 & info [ "threads" ] ~docv:"N" ~doc)

let postprocess_arg =
  let doc =
    "Post-process samples: $(b,none), $(b,polish) (steepest-descend every \
     sample to its local minimum; the --timeout-ms deadline bounds the \
     polish loop too) or $(b,gauge) (solve under a spin-reversal transform \
     to decorrelate solver bias from the problem's sign structure)."
  in
  Arg.(value
       & opt (enum [ ("none", `None); ("polish", `Polish); ("gauge", `Gauge) ]) `None
       & info [ "postprocess" ] ~docv:"MODE" ~doc)

let chain_break_arg =
  let doc =
    "Chain-break resolution for embedded runs: $(b,vote) (majority per \
     chain), $(b,discard) (drop reads with broken chains, falling back to \
     voting when every read breaks) or $(b,polish) (greedy-repair the \
     physical sample before voting)."
  in
  Arg.(value
       & opt (enum [ ("vote", Qac_embed.Embedding.Vote);
                     ("discard", Qac_embed.Embedding.Discard);
                     ("polish", Qac_embed.Embedding.Polish) ])
           Qac_embed.Embedding.Vote
       & info [ "chain-break" ] ~docv:"POLICY" ~doc)

(* The one solver term: --solver, --reads, --sweeps and --seed become a
   [Pipeline.solver], shared by every subcommand that solves. *)
let solver_term =
  let make solver reads sweeps seed =
    match solver with
    | `Exact -> P.Exact_solver
    | `Sa ->
      P.Sa { Qac_anneal.Sa.default_params with
             Qac_anneal.Sa.num_reads = reads; num_sweeps = sweeps; seed }
    | `Sqa ->
      P.Sqa { Qac_anneal.Sqa.default_params with
              Qac_anneal.Sqa.num_reads = reads; num_sweeps = sweeps; seed }
    | `Tabu -> P.Tabu { Qac_anneal.Tabu.default_params with Qac_anneal.Tabu.seed }
    | `Qbsolv -> P.Qbsolv { Qac_anneal.Qbsolv.default_params with Qac_anneal.Qbsolv.seed }
  in
  Term.(const make $ solver_arg $ reads_arg $ sweeps_arg $ seed_arg)

let target_of ?(roof_duality = false) = function
  | None -> P.Logical
  | Some graph -> P.Physical { graph; chain_strength = None; roof_duality }

(* Pins in QMASM syntax ("C[7:0] := 10001111") go to the QMASM parser
   verbatim; the "name=value" shorthand becomes an integer port pin. *)
let split_pins specs =
  List.partition_map
    (fun spec ->
       let spec = String.trim spec in
       match Qac_qmasm.Str_split.find_substring spec ":=" with
       | Some _ -> Left spec
       | None ->
         (match String.index_opt spec '=' with
          | Some i ->
            let name = String.trim (String.sub spec 0 i) in
            let value = String.trim (String.sub spec (i + 1) (String.length spec - i - 1)) in
            (match int_of_string_opt value with
             | Some v -> Right (name, v)
             | None ->
               failwith
                 (Printf.sprintf "bad pin value %S for port %s (not an integer)"
                    value name))
          | None -> failwith ("bad pin syntax: " ^ spec)))
    specs

let run_cmd =
  let run src top steps no_optimize pins solver graph roof all threads timeout_ms store_dir
      postprocess chain_break trace trace_json =
    handle_errors @@ fun () ->
    let tr = make_trace ~trace ~trace_json in
    let store = Option.map Qac_embed.Store.open_dir store_dir in
    let t = compile ?top ?steps ~optimize:(not no_optimize) ?trace:tr src in
    let qmasm_pins, int_pins = split_pins pins in
    let pin_source = String.concat "\n" qmasm_pins in
    let pins = int_pins in
    let target = target_of ~roof_duality:roof graph in
    let cache =
      (* With a store, use a dedicated store-backed cache: the embedding
         persists across process restarts, not just within this one. *)
      match store with
      | Some _ -> Qac_embed.Cache.create ?store ()
      | None -> Qac_embed.Cache.shared ()
    in
    let result =
      P.run t ~pins ~pin_source ?trace:tr ~num_threads:threads ~embed_cache:cache
        ?timeout_ms ~postprocess ~chain_break ~solver ~target
    in
    (match tr with
     | None -> ()
     | Some trace ->
       (* One process makes one run, so the cache has counted only it. *)
       Trace.set_summaries trace ~prefix:"embed-cache-"
         (Qac_embed.Cache.fields (Qac_embed.Cache.stats cache));
       (match target, result.P.num_physical_qubits with
        | P.Physical { graph; _ }, Some q ->
          let working = Qac_chimera.Topology.num_working_qubits graph in
          if working > 0 then
            Trace.set_summary trace "occupancy-pct"
              (float_of_int (100 * q / working))
        | _ -> ()));
    Printf.printf "# logical variables: %d\n" result.P.num_logical_vars;
    (match result.P.num_physical_qubits with
     | Some q -> Printf.printf "# physical qubits:  %d\n" q
     | None -> ());
    Printf.printf "# reads: %d  elapsed: %.3fs\n" result.P.num_reads result.P.elapsed_seconds;
    if result.P.timed_out then
      print_endline "# timed out: solutions are the sampler's best-so-far";
    let shown = if all then result.P.solutions else P.valid_solutions result in
    if shown = [] then print_endline "no valid solutions found (try more reads/sweeps)"
    else
      List.iteri
        (fun i s ->
           Printf.printf "solution %d: energy %g, %d occurrence(s)%s%s\n" (i + 1)
             s.P.energy s.P.num_occurrences
             (if s.P.valid then "" else " [INVALID]")
             (if s.P.broken_chains > 0 then
                Printf.sprintf " [%d broken chains]" s.P.broken_chains
              else "");
           List.iter (fun (name, v) -> Printf.printf "  %s = %d\n" name v) s.P.ports)
        shown;
    emit_trace ~trace_json tr
  in
  let doc = "compile and execute a Verilog module on the annealing substrate" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret
            (const run $ src_arg $ top_arg $ steps_arg $ no_optimize_arg $ pins_arg
             $ solver_term $ graph_term () $ roof_arg $ all_arg
             $ threads_arg $ timeout_arg $ store_arg $ postprocess_arg $ chain_break_arg
             $ trace_arg $ trace_json_arg))

(* --- sat ------------------------------------------------------------------ *)

module Sat = Qac_sat.Compile
module Dimacs = Qac_sat.Dimacs

let sat_file_arg = file_arg "DIMACS CNF or WCNF file (the header picks the mode)."

let maxsat_arg =
  let doc =
    "Treat a plain CNF as MaxSAT: report the best assignment found and its \
     violated-clause count ($(b,o) line) even when the formula was not fully \
     satisfied.  WCNF inputs always run as (weighted) MaxSAT."
  in
  Arg.(value & flag & info [ "maxsat" ] ~doc)

let sat_cmd =
  let run file maxsat solver graph threads timeout_ms chain_break =
    handle_errors @@ fun () ->
    let formula = Dimacs.parse_file file in
    let compiled = Sat.compile formula in
    let p = compiled.Sat.problem in
    let exact = match solver with P.Exact_solver -> true | _ -> false in
    let solved =
      P.solve ~num_threads:threads ?timeout_ms ~chain_break ~solver
        ~target:(target_of graph) p
    in
    (* Decode every read and keep the cheapest assignment; [cost] ranks by
       the same objective the Hamiltonian encodes, so a read whose
       ancillas (or chains) came back suboptimal still scores by what its
       decision bits actually violate. *)
    let best =
      List.fold_left
        (fun acc (spins, _) ->
           let a = Sat.decode compiled spins in
           let c = Sat.cost compiled a in
           match acc with
           | Some (_, best_c) when best_c <= c -> acc
           | _ -> Some (a, c))
        None solved.P.reads
    in
    Printf.printf "c %d variables, %d clauses -> %d spins (%d ancillas), %d couplers\n"
      formula.Dimacs.num_vars
      (Array.length formula.Dimacs.clauses)
      p.Qac_ising.Problem.num_vars compiled.Sat.num_ancillas
      (Array.length p.Qac_ising.Problem.couplers);
    (match solved.P.num_physical_qubits with
     | Some q -> Printf.printf "c physical qubits: %d\n" q
     | None -> ());
    Printf.printf "c reads: %d  elapsed: %.3fs\n" solved.P.num_reads
      solved.P.elapsed_seconds;
    if solved.P.timed_out then
      print_endline "c timed out: best-so-far";
    let print_v a =
      let buf = Buffer.create (4 * Array.length a) in
      Buffer.add_char buf 'v';
      Array.iteri
        (fun i v ->
           Buffer.add_char buf ' ';
           Buffer.add_string buf (string_of_int (if v then i + 1 else -(i + 1))))
        a;
      Buffer.add_string buf " 0";
      print_endline (Buffer.contents buf)
    in
    (match best with
     | None -> print_endline "s UNKNOWN"
     | Some (a, _) ->
       let hard, soft = Dimacs.violations formula a in
       let pure = Dimacs.num_soft formula = 0 in
       if pure && not maxsat then begin
         (* Decision mode.  Exact enumeration proves UNSAT: the compiled
            ground energy is the minimum violated-clause count. *)
         if hard = 0 then begin
           print_endline "s SATISFIABLE";
           print_v a
         end
         else if exact then print_endline "s UNSATISFIABLE"
         else begin
           Printf.printf "c best read violates %d clause(s)\n" hard;
           print_endline "s UNKNOWN"
         end
       end
       else if pure then begin
         (* --maxsat on a plain CNF: minimize the violated-clause count. *)
         Printf.printf "o %d\n" hard;
         print_endline (if exact then "s OPTIMUM FOUND" else "s UNKNOWN");
         print_v a
       end
       else if hard = 0 then begin
         Printf.printf "o %g\n" soft;
         print_endline (if exact then "s OPTIMUM FOUND" else "s SATISFIABLE");
         print_v a
       end
       else if exact then print_endline "s UNSATISFIABLE"
       else begin
         Printf.printf "c best read violates %d hard clause(s)\n" hard;
         print_endline "s UNKNOWN"
       end)
  in
  let doc = "solve a DIMACS CNF/WCNF formula on the annealing substrate" in
  Cmd.v (Cmd.info "sat" ~doc)
    Term.(ret
            (const run $ sat_file_arg $ maxsat_arg $ solver_term $ graph_term () $ threads_arg
             $ timeout_arg $ chain_break_arg))

(* --- qmasm ------------------------------------------------------------------ *)

let qmasm_pin_arg =
  let doc = "Pin variables, QMASM syntax: --pin 'C[7:0] := 10001111'.  Repeatable." in
  Arg.(value & opt_all string [] & info [ "pin" ] ~docv:"PIN" ~doc)

let minizinc_arg =
  let doc = "Emit the problem as MiniZinc instead of solving." in
  Arg.(value & flag & info [ "minizinc" ] ~doc)

let merge_arg =
  let doc = "Merge chained variables into one (qmasm's optimization)." in
  Arg.(value & flag & info [ "merge-chains" ] ~doc)

module Sampler = Qac_anneal.Sampler

let qmasm_cmd =
  let run file pins solver minizinc merge_chains threads timeout_ms =
    handle_errors @@ fun () ->
    (* Pins are QMASM statements appended to the program, as on the qmasm
       command line. *)
    let source = read_file file ^ "\n" ^ String.concat "\n" pins ^ "\n" in
    let options = { Qac_qmasm.Assemble.default_options with merge_chains } in
    let program =
      Qac_qmasm.Qmasm.load ~options ~resolve:Qac_edif2qmasm.Edif2qmasm.resolve source
    in
    if minizinc then print_string (Qac_qmasm.Qmasm.to_minizinc program)
    else begin
      let problem = program.Qac_qmasm.Assemble.problem in
      Printf.printf "# %d variables, %d couplers\n" problem.Qac_ising.Problem.num_vars
        (Qac_ising.Problem.num_interactions problem);
      let solved = P.solve ~num_threads:threads ?timeout_ms ~solver ~target:P.Logical problem in
      Printf.printf "# %d reads in %.3fs\n" solved.P.num_reads solved.P.elapsed_seconds;
      if solved.P.timed_out then print_endline "# timed out: solutions are best-so-far";
      let response = Sampler.response_of_reads problem (List.map fst solved.P.reads) in
      Format.printf "%a" (Sampler.pp_histogram ?buckets:None) response;
      let report = Qac_qmasm.Qmasm.report program in
      List.iteri
        (fun i (s : Sampler.sample) ->
           if i < 10 then begin
             Printf.printf "solution %d: energy %g, %d occurrence(s)\n" (i + 1)
               s.Sampler.energy s.Sampler.num_occurrences;
             let assignment, checks = report s.Sampler.spins in
             List.iter
               (fun (name, v) -> Printf.printf "  %s = %s\n" name (if v then "True" else "False"))
               assignment;
             List.iter
               (fun (expr, ok) ->
                  if not ok then
                    Format.printf "  assertion FAILED: %a@." Qac_qmasm.Ast.pp_bexpr expr)
               checks
           end)
        response.Sampler.samples
    end
  in
  let doc =
    "assemble a standalone QMASM program and run it on the logical problem, in \
     the spirit of the paper's qmasm tool"
  in
  Cmd.v (Cmd.info "qmasm" ~doc)
    Term.(ret
            (const run $ file_arg "QMASM source file." $ qmasm_pin_arg $ solver_term
             $ minizinc_arg $ merge_arg $ threads_arg $ timeout_arg))

(* --- serve ----------------------------------------------------------------- *)

module Serve = Qac_serve.Serve
module Shard = Qac_serve.Shard
module Server = Qac_serve.Server
module Protocol = Qac_serve.Protocol

let jobs_arg =
  let doc =
    "Job file: one job per line, $(i,FILE.v) followed by optional \
     $(i,key=value) tokens.  $(i,port=int) pins a port; the reserved keys \
     $(i,top=), $(i,steps=) and $(i,deadline_ms=) select the top module, \
     the unroll depth and a per-job deadline.  Blank lines and lines \
     starting with # are skipped.  Job ids are $(i,basename#lineno).  \
     Required unless --listen is given, and refused with it (a server \
     takes its jobs over the socket)."
  in
  Arg.(value & opt (some non_dir_file) None & info [ "jobs" ] ~docv:"FILE" ~doc)

let batch_jobs_arg =
  let doc = "Flush a batch once $(docv) jobs are pending (at most $(docv) per batch)." in
  Arg.(value & opt int 16 & info [ "batch-jobs" ] ~docv:"K" ~doc)

let batch_window_arg =
  let doc =
    "Flush a batch once the oldest pending job has waited $(docv) ms.  An \
     idle scheduler does not wait this long once the pending jobs fill \
     every --threads thread, so at one thread a lone job dispatches at \
     once; the window bounds how long a job waits for batch-mates at more \
     threads."
  in
  Arg.(value & opt float 10.0 & info [ "batch-window-ms" ] ~docv:"MS" ~doc)

let queue_capacity_arg =
  let doc = "Submission-queue bound; submission blocks (backpressure) beyond it." in
  Arg.(value & opt int 256 & info [ "queue-capacity" ] ~docv:"N" ~doc)

let listen_arg =
  let doc =
    "Run as a long-lived server on $(docv) — $(i,HOST:PORT) for TCP \
     (port 0 picks an ephemeral port, printed at startup) or a filesystem \
     path for a Unix-domain socket.  Jobs then arrive over the wire (see \
     the $(b,client) command) instead of from --jobs."
  in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)

let shards_arg =
  let doc =
    "Number of scheduler shards: each runs on its own domain with its own \
     embedding cache and batch queue."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let routing_arg =
  let doc =
    "Shard routing: $(b,affinity) (rendezvous-hash the problem structure, \
     so same-shaped jobs share a warm embedding cache) or \
     $(b,round-robin)."
  in
  Arg.(value
       & opt (enum [ ("affinity", Shard.Affinity); ("round-robin", Shard.Round_robin) ])
           Shard.Affinity
       & info [ "routing" ] ~docv:"POLICY" ~doc)

(* "HOST:PORT" (TCP) or a filesystem path (Unix-domain). *)
let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i ->
    (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
     | Some port ->
       let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
       let ip =
         try Unix.inet_addr_of_string host
         with Failure _ ->
           (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> failwith ("cannot resolve host " ^ host))
       in
       Unix.ADDR_INET (ip, port)
     | None -> Unix.ADDR_UNIX s)
  | None -> Unix.ADDR_UNIX s

let string_of_addr = function
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX path -> path

type parsed_job = {
  line_no : int;
  path : string;
  job_top : string option;
  job_steps : int option;
  deadline_ms : float option;
  job_pins : (string * int) list;
}

let parse_job_line line_no line =
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | path :: rest ->
    let top = ref None and steps = ref None and deadline = ref None in
    let pins = ref [] in
    let bad tok what =
      failwith (Printf.sprintf "jobs line %d: %s in %S" line_no what tok)
    in
    List.iter
      (fun tok ->
         match String.index_opt tok '=' with
         | None -> bad tok "expected key=value"
         | Some i ->
           let k = String.sub tok 0 i in
           let v = String.sub tok (i + 1) (String.length tok - i - 1) in
           let as_int () =
             match int_of_string_opt v with
             | Some n -> n
             | None -> bad tok "expected an integer value"
           in
           (match k with
            | "top" -> top := Some v
            | "steps" -> steps := Some (as_int ())
            | "deadline_ms" ->
              (match float_of_string_opt v with
               | Some f -> deadline := Some f
               | None -> bad tok "expected a float value")
            | _ -> pins := (k, as_int ()) :: !pins))
      rest;
    Some { line_no; path; job_top = !top; job_steps = !steps;
           deadline_ms = !deadline; job_pins = List.rev !pins }

(* A compiled-problem snapshot is keyed by everything that determines the
   assembled problem: the source text, top/steps selection, and the pins. *)
let problem_snapshot_key ~src ~top ~steps ~pins =
  let b = Buffer.create 1024 in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b '\000'
  in
  str src;
  str (Option.value ~default:"" top);
  str (match steps with Some s -> string_of_int s | None -> "");
  List.iter
    (fun (k, v) ->
       str k;
       str (string_of_int v))
    pins;
  Digest.string (Buffer.contents b)

(* Parse a job file, compile each referenced design once per (path, top,
   steps), and assemble.  Returns [(compiled option, job)] in file order.
   With [?store], each job's assembled problem is snapshotted: a snapshot
   hit skips parse->assemble entirely and carries no compiled artifacts
   ([None]) — results then print energies without port decoding. *)
let build_jobs ?store ?trace jobs_file =
  let parsed =
    String.split_on_char '\n' (read_file jobs_file)
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.concat_map (fun (n, line) ->
        if line = "" || line.[0] = '#' then []
        else match parse_job_line n line with Some j -> [ j ] | None -> [])
  in
  if parsed = [] then failwith "no jobs in file";
  List.map
    (fun pj ->
       let id = Printf.sprintf "%s#%d" (Filename.basename pj.path) pj.line_no in
       let src =
         try read_file pj.path
         with Sys_error msg -> failwith (Printf.sprintf "jobs line %d: %s" pj.line_no msg)
       in
       let key =
         Option.map
           (fun _ ->
              problem_snapshot_key ~src ~top:pj.job_top ~steps:pj.job_steps
                ~pins:pj.job_pins)
           store
       in
       let snapshot =
         match store, key with
         | Some s, Some k -> Qac_embed.Store.find_problem s k
         | _ -> None
       in
       match snapshot with
       | Some problem ->
         (None, { Serve.id; problem; timeout_ms = pj.deadline_ms })
       | None ->
         let t =
           P.compile_cached ?top:pj.job_top ?steps:pj.job_steps ~optimize:true
             ?trace src
         in
         let program = P.assemble_with_pins ~pins:pj.job_pins t in
         let problem = program.Qac_qmasm.Assemble.problem in
         (match store, key with
          | Some s, Some k -> Qac_embed.Store.put_problem s k problem
          | _ -> ());
         (Some (t, program), { Serve.id; problem; timeout_ms = pj.deadline_ms }))
    parsed

let print_serve_result tp (r : Serve.result) =
  let status =
    match r.Serve.status with
    | Serve.Done -> "done"
    | Serve.Timed_out -> "TIMED OUT (best-so-far below, if any)"
    | Serve.Canceled -> "CANCELED"
    | Serve.Failed msg -> "FAILED: " ^ msg
  in
  Printf.printf "job %s: %s (batch %d, wait %.3fs, solve %.3fs)\n" r.Serve.id
    status r.Serve.batch r.Serve.wait_seconds r.Serve.solve_seconds;
  match r.Serve.response with
  | None -> ()
  | Some resp ->
    (match resp.Qac_anneal.Sampler.samples with
     | [] -> ()
     | best :: _ ->
       (match tp with
        | Some (t, program) ->
          let s =
            P.solution_of_spins t ~program
              ~num_occurrences:best.Qac_anneal.Sampler.num_occurrences
              best.Qac_anneal.Sampler.spins
          in
          Printf.printf "  best: energy %g, %d occurrence(s)%s\n" s.P.energy
            s.P.num_occurrences
            (if s.P.valid then "" else " [INVALID]");
          List.iter (fun (name, v) -> Printf.printf "    %s = %d\n" name v) s.P.ports
        | None ->
          (* Problem restored from the artifact store: the symbol table was
             never rebuilt, so report the raw sample without port names. *)
          Printf.printf "  best: energy %g, %d occurrence(s) [from store snapshot]\n"
            best.Qac_anneal.Sampler.energy best.Qac_anneal.Sampler.num_occurrences))

let print_store_summary = function
  | None -> ()
  | Some store ->
    let st = Qac_embed.Store.stats store in
    Printf.printf
      "# store %s: %d embeddings, %d problems, embed %d/%d hits, problem %d/%d hits, \
       %d writes, %d load failures\n"
      (Qac_embed.Store.dir store) st.Qac_embed.Store.embeddings
      st.Qac_embed.Store.problems st.Qac_embed.Store.embed_hits
      (st.Qac_embed.Store.embed_hits + st.Qac_embed.Store.embed_misses)
      st.Qac_embed.Store.problem_hits
      (st.Qac_embed.Store.problem_hits + st.Qac_embed.Store.problem_misses)
      st.Qac_embed.Store.writes st.Qac_embed.Store.load_failures

let print_pool_summary pool =
  Array.iter
    (fun (s : Shard.shard_stats) ->
       let sv = s.Shard.serve and c = s.Shard.cache in
       Printf.printf
         "# shard %d: %d jobs in %d batches: %d placed, %d deferrals, %d retries, \
          %d failures, %d timeouts, occupancy %.1f%%, throughput %.1f jobs/s, \
          cache %d/%d hits\n"
         s.Shard.shard sv.Serve.jobs_done sv.Serve.batches sv.Serve.placed
         sv.Serve.deferrals sv.Serve.retries sv.Serve.failures sv.Serve.timeouts
         (100.0 *. sv.Serve.mean_occupancy) sv.Serve.jobs_per_second
         c.Qac_embed.Cache.hits (c.Qac_embed.Cache.hits + c.Qac_embed.Cache.misses))
    (Shard.stats pool);
  let lat = Shard.latency pool in
  if Qac_diag.Hist.count lat > 0 then
    print_endline
      (String.concat " "
         ("# latency"
          :: List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) (Serve.latency_fields lat)))

(* [Shard.create] rejects a bad setting (a limit or thread count below 1,
   a NaN or negative window) with [Invalid_argument]: a usage error, not
   an internal one. *)
let usage_checked create =
  try create () with Invalid_argument msg -> raise (Usage msg)

let serve_cmd =
  let run jobs_file graph solver threads batch_jobs
      batch_window_ms queue_capacity listen shards routing store_dir postprocess
      chain_break trace trace_json =
    handle_errors @@ fun () ->
    if shards < 1 then raise (Usage "--shards must be >= 1");
    (match listen, jobs_file with
     | Some _, Some _ -> raise (Usage "--jobs and --listen exclude each other")
     | None, None -> raise (Usage "--jobs is required unless --listen is given")
     | _ -> ());
    (* Only the single-shard job-file run has one trace to write. *)
    if (trace || trace_json) && (shards > 1 || listen <> None) then
      raise (Usage "--trace and --trace-json need a single-shard --jobs run");
    let store = Option.map Qac_embed.Store.open_dir store_dir in
    (* Per-job solves already run concurrently across the service's
       domains, so each individual solve stays single-threaded.  The
       composite wrapper honors each job's own deadline inside the
       polish loop. *)
    let solver = P.composite_solve ~postprocess solver in
    let graph =
      match graph with Some g -> g | None -> raise (Usage "--physical must be >= 1")
    in
    (* The trace is created before job building so the compile-cache
       hit/miss summaries land on it alongside the serve counters. *)
    let tr = make_trace ~trace ~trace_json in
    let jobs = match jobs_file with Some f -> build_jobs ?store ?trace:tr f | None -> [] in
    let pool =
      usage_checked (fun () ->
          Shard.create ~num_shards:shards ~routing ~queue_capacity ~batch_jobs
            ~batch_window_s:(batch_window_ms /. 1000.0) ~num_threads:threads ~chain_break
            ?store ?trace:tr ~solver ~graph ())
    in
    (match listen with
     | Some addr ->
       let server = Server.create ~pool ~sockaddr:(parse_addr addr) () in
       Printf.printf "listening on %s (%d shard%s, %s routing)\n%!"
         (string_of_addr (Server.sockaddr server))
         shards (if shards = 1 then "" else "s")
         (match routing with Shard.Affinity -> "affinity" | Shard.Round_robin -> "round-robin");
       let results = Server.run server in
       Printf.printf "# served %d job(s)\n" (List.length results)
     | None ->
       ignore (Shard.submit_all pool (List.map snd jobs));
       (* Tickets are assigned in submission order, so drain's ticket
          order matches the job-file order. *)
       List.iter2 (fun (tp, _) (_, r) -> print_serve_result tp r) jobs (Shard.drain pool));
    print_pool_summary pool;
    print_store_summary store;
    emit_trace ~trace_json tr
  in
  let doc =
    "serve jobs tiled onto one annealer graph — from a job file, or as a \
     long-lived sharded server (--listen)"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(ret
            (const run $ jobs_arg
             $ graph_term ~default:16
                 ~doc:"Tile jobs onto a size-$(docv) hardware graph (family from --topology)."
                 ()
             $ solver_term $ threads_arg
             $ batch_jobs_arg $ batch_window_arg $ queue_capacity_arg
             $ listen_arg $ shards_arg $ routing_arg $ store_arg
             $ postprocess_arg $ chain_break_arg $ trace_arg $ trace_json_arg))

(* --- client ---------------------------------------------------------------- *)

let connect_arg =
  let doc = "Server address: $(i,HOST:PORT) or a Unix-domain socket path." in
  Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

let poll_ms_arg =
  let doc = "Poll interval while waiting for results, in milliseconds." in
  Arg.(value & opt float 5.0 & info [ "poll-ms" ] ~docv:"MS" ~doc)

let client_stats_arg =
  let doc = "Print the server's per-shard stats (JSON) after any jobs finish." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let client_metrics_arg =
  let doc = "Print the server's metrics exposition (Prometheus text format)." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let client_shutdown_arg =
  let doc = "Ask the server to drain and shut down (sent last)." in
  Arg.(value & flag & info [ "shutdown" ] ~doc)

let client_cmd =
  let run connect_addr jobs_file poll_ms want_stats want_metrics want_shutdown =
    handle_errors @@ fun () ->
    let fd = Protocol.connect (parse_addr connect_addr) in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
         (match jobs_file with
          | None -> ()
          | Some file ->
            let jobs = build_jobs file in
            let tickets =
              List.map
                (fun (_, job) ->
                   let rec submit () =
                     match Protocol.call fd (Protocol.Submit job) with
                     | Protocol.Submitted { ticket; shard } ->
                       Printf.printf "job %s -> ticket %d (shard %d)\n%!"
                         job.Serve.id ticket shard;
                       ticket
                     | Protocol.Busy { retry_after_ms } ->
                       Unix.sleepf (retry_after_ms /. 1000.0);
                       submit ()
                     | Protocol.Error msg -> failwith msg
                     | _ -> failwith "unexpected reply to submit"
                   in
                   submit ())
                jobs
            in
            List.iter2
              (fun (tp, _) ticket ->
                 let rec poll () =
                   match Protocol.call fd (Protocol.Poll ticket) with
                   | Protocol.Completed r -> print_serve_result tp r
                   | Protocol.Pending ->
                     Unix.sleepf (poll_ms /. 1000.0);
                     poll ()
                   | Protocol.Error msg -> failwith msg
                   | _ -> failwith "unexpected reply to poll"
                 in
                 poll ())
              jobs tickets);
         if want_stats then
           (match Protocol.call fd Protocol.Stats with
            | Protocol.Stats_json s -> print_endline (Protocol.json_to_string s)
            | _ -> failwith "unexpected reply to stats");
         if want_metrics then
           (match Protocol.call fd Protocol.Metrics with
            | Protocol.Metrics_text m -> print_string m
            | _ -> failwith "unexpected reply to metrics");
         if want_shutdown then
           (match Protocol.call fd Protocol.Shutdown with
            | Protocol.Shutdown_ok -> print_endline "# server shutting down"
            | _ -> failwith "unexpected reply to shutdown"))
  in
  let doc = "submit jobs to a running $(b,vqa serve --listen) server" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(ret
            (const run $ connect_arg $ jobs_arg $ poll_ms_arg $ client_stats_arg
             $ client_metrics_arg $ client_shutdown_arg))

(* --- cells ----------------------------------------------------------------- *)

let cells_cmd =
  let run () =
    Printf.printf "%-6s %-28s %-9s %-5s %s\n" "cell" "logic" "ancillas" "gap" "status";
    List.iter
      (fun (c : Qac_cells.Cells.t) ->
         let logic =
           match c.Qac_cells.Cells.name with
           | "NOT" -> "Y = ~A"
           | "AND" -> "Y = A & B"
           | "OR" -> "Y = A | B"
           | "NAND" -> "Y = ~(A & B)"
           | "NOR" -> "Y = ~(A | B)"
           | "XOR" -> "Y = A ^ B"
           | "XNOR" -> "Y = ~(A ^ B)"
           | "MUX" -> "Y = S ? B : A"
           | "AOI3" -> "Y = ~((A & B) | C)"
           | "OAI3" -> "Y = ~((A | B) & C)"
           | "AOI4" -> "Y = ~((A & B) | (C & D))"
           | "OAI4" -> "Y = ~((A | B) & (C | D))"
           | _ -> "Q = D"
         in
         match Qac_cells.Cells.verify c with
         | Ok gap ->
           Printf.printf "%-6s %-28s %-9d %-5g verified\n" c.Qac_cells.Cells.name logic
             c.Qac_cells.Cells.num_ancillas gap
         | Error msg ->
           Printf.printf "%-6s %-28s %-9d %-5s FAILED: %s\n" c.Qac_cells.Cells.name logic
             c.Qac_cells.Cells.num_ancillas "-" msg)
      Qac_cells.Cells.all;
    `Ok ()
  in
  let doc = "print and verify the Table 5 standard-cell library" in
  Cmd.v (Cmd.info "cells" ~doc) Term.(ret (const run $ const ()))

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let run src top steps no_optimize graph =
    handle_errors @@ fun () ->
    let t = compile ?top ?steps ~optimize:(not no_optimize) src in
    let props = P.static_properties t in
    Printf.printf "verilog lines:        %d\n" props.P.verilog_lines;
    Printf.printf "edif lines:           %d\n" props.P.edif_lines;
    Printf.printf "qmasm lines:          %d (+ %d in stdcell.qmasm)\n" props.P.qmasm_lines
      props.P.stdcell_lines;
    Printf.printf "logical variables:    %d\n" props.P.logical_vars;
    Printf.printf "logical terms:        %d\n" props.P.logical_terms;
    match graph with
    | None -> ()
    | Some graph ->
      (* The embedding [vqa run --physical] solves on: a batch of one on the
         tiler's ladder. *)
      let module Tiler = Qac_embed.Tiler in
      let name = graph.Qac_chimera.Topology.name in
      let family = Qac_chimera.Family.of_topology graph in
      (match (Tiler.tile family [| t.P.program.Qac_qmasm.Assemble.problem |]).Tiler.outcomes.(0) with
       | Tiler.Placed { region; embedding = e; physical; _ } ->
         Printf.printf "ladder block:         %d\n" region.Tiler.block;
         Printf.printf "physical qubits:      %d (%s)\n"
           (Qac_embed.Embedding.num_physical_qubits e) name;
         Printf.printf "physical terms:       %d\n" (Qac_ising.Problem.num_terms physical);
         Printf.printf "max chain length:     %d\n" (Qac_embed.Embedding.max_chain_length e)
       | Tiler.Failed msg -> Printf.printf "physical: %s on %s\n" msg name
       | Tiler.Deferred -> assert false (* a ladder's block always fits an empty floor *))
  in
  let doc = "print the section 6.1 static properties of a module" in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(ret (const run $ src_arg $ top_arg $ steps_arg $ no_optimize_arg $ graph_term ()))

let () =
  let doc = "compile classical Verilog code to a quantum annealer (ASPLOS'19 reproduction)" in
  let info = Cmd.info "vqa" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; sat_cmd; qmasm_cmd; serve_cmd; client_cmd; cells_cmd;
            stats_cmd ]))
