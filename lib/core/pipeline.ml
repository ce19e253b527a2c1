module Diag = Qac_diag.Diag
module Trace = Qac_diag.Trace

let error fmt = Diag.error ~stage:"pipeline" fmt

module N = Qac_netlist.Netlist
module Sim = Qac_netlist.Sim
module Passes = Qac_netlist.Passes
module Vlog = Qac_verilog
module Qmasm = Qac_qmasm
module E2Q = Qac_edif2qmasm.Edif2qmasm
module Anneal = Qac_anneal
module Chimera = Qac_chimera.Chimera
module Embedding = Qac_embed.Embedding
module Tiler = Qac_embed.Tiler
module Qpbo = Qac_roofdual.Qpbo
open Qac_ising

type t = {
  verilog_src : string;
  elaborated : Vlog.Elab.t;
  netlist : N.t;
  ff_names : string array;
  steps : int option;
  qmasm_src : string;
  statements : Qmasm.Ast.stmt list;
  program : Qmasm.Assemble.t;
  options : Qmasm.Assemble.options;
}

let default_options =
  { Qmasm.Assemble.merge_chains = true; chain_strength = None; pin_strength = None }

(* Lines of the EDIF text the netlist renders to, the section 6.1 size
   metric. *)
let edif_lines netlist = Qac_sexp.Sexp.line_count (Qac_edif.Edif.to_sexp netlist)

(* Compile stages (section 4, Fig. 1), each a traced span:
   parse -> elab -> synth -> unroll -> edif-roundtrip -> e2q -> expand
   -> assemble.  Stage failures raise [Diag.Error] tagged at the raising
   stage, so no catch ladder is needed here. *)
let compile ?top ?steps ?(optimize = true) ?(options = default_options) ?trace verilog_src =
  let span name f = Trace.with_span_opt trace name f in
  let count key v = Trace.counter_opt trace key v in
  let design = span "parse" (fun () -> Vlog.Parser.parse_design verilog_src) in
  let elaborated = span "elab" (fun () -> Vlog.Elab.elaborate ?top design) in
  let { Vlog.Synth.netlist; ff_names } =
    span "synth" (fun () ->
        let r = Vlog.Synth.synthesize ~optimize elaborated in
        count "gates" (Array.length r.Vlog.Synth.netlist.N.cells);
        count "nets" r.Vlog.Synth.netlist.N.num_nets;
        r)
  in
  let netlist, steps =
    span "unroll" (fun () ->
        let netlist, steps =
          if N.is_combinational netlist then (netlist, None)
          else
            match steps with
            | None ->
              error
                "module %s is sequential; pass ~steps to unroll it (section 4.3.3)"
                netlist.N.name
            | Some s ->
              let unrolled = Passes.unroll ~ff_names netlist ~steps:s in
              ((if optimize then Passes.optimize unrolled else unrolled), Some s)
        in
        count "steps" (match steps with Some s -> s | None -> 0);
        count "gates" (Array.length netlist.N.cells);
        (netlist, steps))
  in
  let reread =
    span "edif-roundtrip" (fun () ->
        (* The QMASM is generated from the netlist the paper's EDIF hand-off
           would deliver, built without the text; a trace counts the lines
           that text would have on the EDIF tree, without rendering it. *)
        if trace <> None then count "edif-lines" (edif_lines netlist);
        Qac_edif.Edif.reread netlist)
  in
  let qmasm_src = span "e2q" (fun () -> E2Q.convert reread) in
  let statements =
    span "expand" (fun () ->
        let stmts =
          Qmasm.Macro.expand ~resolve:E2Q.resolve (Qmasm.Parser.parse_string qmasm_src)
        in
        count "statements" (List.length stmts);
        stmts)
  in
  let program =
    span "assemble" (fun () ->
        let program = Qmasm.Assemble.assemble ~options statements in
        count "logical-vars" program.Qmasm.Assemble.problem.Problem.num_vars;
        count "logical-terms" (Problem.num_terms program.Qmasm.Assemble.problem);
        program)
  in
  { verilog_src;
    elaborated;
    netlist;
    ff_names;
    steps;
    qmasm_src;
    statements;
    program;
    options }

(* --- Compile memoization --------------------------------------------------- *)

(* The whole front half is a pure function of (source, top, steps,
   optimize, options), so same-source jobs — the serving tier's common
   case — can skip parse->assemble entirely.  Keyed on a digest of the
   source plus the structural options; the compiled value is immutable and
   shared by reference. *)

type compile_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

type compile_cache = {
  cc_lock : Mutex.t;
  cc_table : (string * string option * int option * bool * Qmasm.Assemble.options, t) Hashtbl.t;
  mutable cc_counts : compile_cache_stats;
      (* lock-guarded; [entries] stays 0, {!compile_cache_stats} fills it *)
}

let compile_cache_create () =
  { cc_lock = Mutex.create ();
    cc_table = Hashtbl.create 16;
    cc_counts = { hits = 0; misses = 0; entries = 0 } }

(* Created when the module is initialised, before any domain can start:
   concurrent first calls must all see the same cache. *)
let shared_compile_cache_v = compile_cache_create ()
let shared_compile_cache () = shared_compile_cache_v

let compile_cache_stats c =
  Mutex.lock c.cc_lock;
  let s = { c.cc_counts with entries = Hashtbl.length c.cc_table } in
  Mutex.unlock c.cc_lock;
  s

(* Trace summaries accumulate across compiles within one trace. *)
let bump_summary trace key =
  match trace with
  | None -> ()
  | Some tr ->
    Trace.set_summary tr key (1.0 +. Option.value ~default:0.0 (Trace.find_summary tr key))

let compile_cached ?cache ?top ?steps ?(optimize = true) ?(options = default_options)
    ?trace verilog_src =
  let c = match cache with Some c -> c | None -> shared_compile_cache () in
  let key = (Digest.string verilog_src, top, steps, optimize, options) in
  Mutex.lock c.cc_lock;
  match Hashtbl.find_opt c.cc_table key with
  | Some t ->
    c.cc_counts <- { c.cc_counts with hits = c.cc_counts.hits + 1 };
    Mutex.unlock c.cc_lock;
    bump_summary trace "compile-cache-hits";
    t
  | None ->
    c.cc_counts <- { c.cc_counts with misses = c.cc_counts.misses + 1 };
    Mutex.unlock c.cc_lock;
    (* Compile outside the lock: a slow compile must not serialize other
       shards' lookups.  Concurrent same-key misses both compile; last
       write wins with an identical value. *)
    bump_summary trace "compile-cache-misses";
    let t = compile ?top ?steps ~optimize ~options ?trace verilog_src in
    Mutex.lock c.cc_lock;
    Hashtbl.replace c.cc_table key t;
    Mutex.unlock c.cc_lock;
    t

(* --- Pins ----------------------------------------------------------------- *)

let port_width t name =
  match N.find_input t.netlist name with
  | Some nets -> Some (Array.length nets)
  | None ->
    (match N.find_output t.netlist name with
     | Some signals -> Some (Array.length signals)
     | None -> None)

(* A non-negative [value] fits in [width] bits iff shifting out those bits
   leaves nothing.  OCaml ints are 63-bit, so any value fits once
   [width >= Sys.int_size - 1]; never shift by the full width (undefined
   for shifts > int_size, and [1 lsl width] overflows at width 62). *)
let value_in_range ~width value =
  value >= 0 && (width >= Sys.int_size - 1 || value lsr width = 0)

(* Expand "name := value" into per-bit pins using the port's width. *)
let pin_statements t pins =
  List.map
    (fun (name, value) ->
       match port_width t name with
       | Some width ->
         if not (value_in_range ~width value) then
           error "pin value %d out of range for %d-bit port %s" value width name;
         Qmasm.Ast.Pin
           (List.init width (fun i ->
                (E2Q.port_symbol ~width name i, (value lsr i) land 1 = 1)))
       | None ->
         (* Maybe a bit name like "valid" that is 1-wide, or an explicit
            bit "C[3]"; fall back to a direct symbol pin. *)
         if value < 0 || value > 1 then
           error "pin target %s is not a known multi-bit port; value must be 0/1" name;
         Qmasm.Ast.Pin [ (name, value = 1) ])
    pins

(* --- Execution ------------------------------------------------------------ *)

type solver =
  | Exact_solver
  | Sa of Anneal.Sa.params
  | Sqa of Anneal.Sqa.params
  | Tabu of Anneal.Tabu.params
  | Qbsolv of Anneal.Qbsolv.params

type target =
  | Logical
  | Physical of {
      graph : Chimera.t;
      chain_strength : float option;
      roof_duality : bool;
    }

let dwave_target =
  Physical
    { graph = Chimera.dwave_2000q;
      chain_strength = None;
      roof_duality = false }

type solution = {
  ports : (string * int) list;
  assignment : (string * bool) list;
  energy : float;
  num_occurrences : int;
  valid : bool;
  assertions_ok : bool;
  pins_respected : bool;
  broken_chains : int;
}

type solve_result = {
  reads : (Problem.spin array * int) list;
  num_physical_qubits : int option;
  num_reads : int;
  elapsed_seconds : float;
  timed_out : bool;
}

type run_result = {
  solutions : solution list;
  num_reads : int;
  elapsed_seconds : float;
  num_logical_vars : int;
  num_physical_qubits : int option;
  assertion_failures : int;
  timed_out : bool;
}

(* Read batches for SA/SQA/tabu go through [Anneal.Parallel] at every thread
   count: the chunk decomposition depends only on the seed, so the sample set
   is identical whether the chunks run on 1 domain or many.  [deadline] is an
   absolute instant; the exact solver ignores it (enumeration is not
   interruptible mid-subtree, and its size cap already bounds its runtime).
   A problem above that cap is the user's choice of solver, not a bug, so
   it is a diagnostic. *)
let dispatch_solver ?(num_threads = 1) ?deadline solver problem =
  match solver with
  | Exact_solver when problem.Problem.num_vars > Exact.max_vars ->
    Diag.error ~stage:"pipeline"
      "the exact solver enumerates at most %d variables; this problem has %d"
      Exact.max_vars problem.Problem.num_vars
  | Exact_solver -> Anneal.Exact_sampler.sample problem
  | Sa params -> Anneal.Parallel.sample_sa ~num_threads ?deadline ~params problem
  | Sqa params -> Anneal.Parallel.sample_sqa ~num_threads ?deadline ~params problem
  | Tabu params -> Anneal.Parallel.sample_tabu ~num_threads ?deadline ~params problem
  | Qbsolv params -> Anneal.Qbsolv.sample ~params ?deadline problem

(* One solve = composite-wrapped dispatch.  The deadline bounds the base
   solve {e and} the polish loop: a solve under time pressure returns
   unpolished samples rather than blowing its budget in post-processing. *)
let composite_solve ?(num_threads = 1) ?(postprocess = `None) solver ~deadline problem =
  Anneal.Composite.wrap ~postprocess ?deadline problem
    ~solve:(fun p -> dispatch_solver ~num_threads ?deadline solver p)

(* Solve stages, each a traced span: (qpbo -> embed) -> solve -> unembed.
   Logical targets skip the embedding spans.  A physical target is a batch
   of one on the tiler's capacity ladder ({!Qac_embed.Tiler}), the same
   embedding and solve a served job gets; the ladder records the embed
   span and the cache counters (a warm cache has no embed span).
   [timeout_ms] bounds the solve stage: the absolute deadline is computed
   when the solve span opens, the samplers return best-so-far on expiry,
   and the [timed-out] counter (0/1) lands on the solve span. *)
let solve ?trace ?(num_threads = 1) ?(embed_cache = Qac_embed.Cache.shared ()) ?timeout_ms
    ?postprocess ?chain_break ~solver ~target logical =
  let span name f = Trace.with_span_opt trace name f in
  let count key v = Trace.counter_opt trace key v in
  let solve_span problem =
    span "solve" (fun () ->
        let deadline =
          Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0)) timeout_ms
        in
        let r = composite_solve ~num_threads ?postprocess solver ~deadline problem in
        count "reads" r.Anneal.Sampler.num_reads;
        count "timed-out" (if r.Anneal.Sampler.timed_out then 1 else 0);
        r)
  in
  (* [num_reads] counts the reads returned, as a served response does;
     the solve span's [reads] counter keeps the sampler's figure. *)
  let result ?num_physical_qubits (response : Anneal.Sampler.response) reads : solve_result =
    { reads;
      num_physical_qubits;
      num_reads = List.length reads;
      elapsed_seconds = response.Anneal.Sampler.elapsed_seconds;
      timed_out = response.Anneal.Sampler.timed_out }
  in
  (* One entry per read: each distinct sample repeats by its count. *)
  let expand counted = List.concat_map (fun (x, n) -> List.init n (fun _ -> x)) counted in
  match target with
  | Logical ->
    let response = solve_span logical in
    result response
      (expand
         (List.map
            (fun (s : Anneal.Sampler.sample) ->
               ((s.Anneal.Sampler.spins, 0), s.Anneal.Sampler.num_occurrences))
            response.Anneal.Sampler.samples))
  | Physical { graph; chain_strength; roof_duality } ->
    let num_logical_vars = logical.Problem.num_vars in
    let simplified =
      span "qpbo" (fun () ->
          let simplified =
            if roof_duality then Qpbo.simplify logical
            else
              { Qpbo.reduced = logical;
                kept = Array.init num_logical_vars (fun i -> i);
                fixed = [] }
          in
          count "kept-vars" (Array.length simplified.Qpbo.kept);
          count "fixed-vars" (List.length simplified.Qpbo.fixed);
          simplified)
    in
    let family = Qac_chimera.Family.of_topology graph in
    let params = { Tiler.default_params with Tiler.chain_strength } in
    let jobs = [| simplified.Qpbo.reduced |] in
    (* vqa's --threads reaches the embedder here: a one-job ladder hands
       every thread to CMR's tries. *)
    let ladders = Tiler.ladders ~params ~cache:embed_cache ?trace ~num_threads family jobs in
    (match (Tiler.place ~params family jobs ladders).Tiler.outcomes.(0) with
     | Tiler.Placed p ->
       let kept, response = Tiler.solve_placed ?trace ?chain_break ~solver:solve_span p in
       let restore (u : Embedding.unembedded) =
         ( Qpbo.restore ~original_num_vars:num_logical_vars simplified u.Embedding.logical,
           u.Embedding.broken_chains )
       in
       result
         ~num_physical_qubits:(Embedding.num_physical_qubits p.Tiler.embedding)
         response
         (expand (List.map (fun (u, n) -> (restore u, n)) kept))
     | Tiler.Failed msg -> error "no minor embedding found: %s" msg
     | Tiler.Deferred -> assert false (* a ladder's block always fits an empty floor *))

(* Re-assemble with the pins appended (the --pin workflow of section
   4.3.6: program code stays separate from program inputs), reusing the
   assembly options the program was compiled with. *)
let assemble_with_pins ?(pins = []) ?(pin_source = "") t =
  let source_pins =
    if String.trim pin_source = "" then []
    else
      try Qmasm.Parser.parse_string pin_source
      with Diag.Error d -> error "pin parse: %s" (Diag.to_string d)
  in
  let statements = t.statements @ pin_statements t pins @ source_pins in
  Qmasm.Assemble.assemble ~options:t.options statements

(* Name and verify one logical configuration: port integers, the netlist
   relation check (section 5.1), assertion and pin checks.  Applying
   [t ~program] resolves every name verify reads to its variable, once per
   program; each read then costs array reads, the assertions and one
   netlist simulation. *)
let solution_of_spins t ~program =
  let module A = Qmasm.Assemble in
  let assignment = A.visible_assignment program in
  let check_assertions = A.check_assertions program in
  let var name =
    match A.variable program name with
    | Some v -> v
    | None -> error "pin references unknown symbol %s" name
  in
  let pins = List.map (fun (name, expected) -> (var name, expected)) program.A.pins in
  (* Each port's bit variables, LSB first; a bit with no visible symbol
     reads as 0. *)
  let port_vars (name, width) =
    ( name,
      Array.init width (fun i ->
          let sym = E2Q.port_symbol ~width name i in
          if Qmasm.Ast.is_internal_symbol sym then None else A.variable program sym) )
  in
  let ports =
    List.map (fun (name, nets) -> (name, Array.length nets)) t.netlist.N.inputs
    @ List.map (fun (name, signals) -> (name, Array.length signals)) t.netlist.N.outputs
    |> List.map port_vars
  in
  let is_set spins v = spins.(v) > 0 in
  let value bits =
    let v = ref 0 in
    Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) bits;
    !v
  in
  fun ?(num_occurrences = 1) ?(broken_chains = 0) spins ->
    let assignment = assignment spins in
    let assertions_ok = List.for_all snd (check_assertions spins) in
    let bits =
      List.map
        (fun (name, vars) ->
           (name, Array.map (function Some v -> is_set spins v | None -> false) vars))
        ports
    in
    { ports = List.map (fun (name, b) -> (name, value b)) bits;
      assignment;
      energy = Problem.energy program.A.problem spins;
      num_occurrences;
      valid = Sim.check_relation t.netlist ~assignment:bits;
      assertions_ok;
      pins_respected = List.for_all (fun (v, expected) -> is_set spins v = expected) pins;
      broken_chains }

(* Run = assemble span + [solve] + verify span. *)
let run ?(pins = []) ?(pin_source = "") ?trace ?num_threads ?embed_cache ?timeout_ms
    ?postprocess ?chain_break ~solver ~target t =
  let span name f = Trace.with_span_opt trace name f in
  let count key v = Trace.counter_opt trace key v in
  let program =
    span "assemble" (fun () ->
        let program = assemble_with_pins ~pins ~pin_source t in
        count "logical-vars" program.Qmasm.Assemble.problem.Problem.num_vars;
        count "logical-terms" (Problem.num_terms program.Qmasm.Assemble.problem);
        program)
  in
  let logical = program.Qmasm.Assemble.problem in
  let solved =
    solve ?trace ?num_threads ?embed_cache ?timeout_ms ?postprocess ?chain_break ~solver
      ~target logical
  in
  span "verify" (fun () ->
      (* Aggregate logical reads into named solutions, keyed on every spin
         (a polymorphic hash of the spin list reads only its first few);
         [first_seen] keeps distinct reads in the order they arrived. *)
      let tbl = Hashtbl.create 64 in
      let first_seen = ref [] in
      List.iter
        (fun (spins, broken) ->
           let key = Anneal.Sampler.pack spins in
           match Hashtbl.find_opt tbl key with
           | Some (spins, count, worst_broken) ->
             Hashtbl.replace tbl key (spins, count + 1, max worst_broken broken)
           | None ->
             Hashtbl.replace tbl key (spins, 1, broken);
             first_seen := key :: !first_seen)
        solved.reads;
      let verify = solution_of_spins t ~program in
      let solutions =
        List.rev_map
          (fun key ->
             let spins, count, broken = Hashtbl.find tbl key in
             verify ~num_occurrences:count ~broken_chains:broken spins)
          !first_seen
        |> List.stable_sort (fun a b ->
            match compare a.energy b.energy with
            | 0 -> compare a.ports b.ports
            | c -> c)
      in
      let assertion_failures = List.length (List.filter (fun s -> not s.assertions_ok) solutions) in
      count "distinct-solutions" (List.length solutions);
      count "valid-solutions"
        (List.length (List.filter (fun s -> s.valid && s.pins_respected) solutions));
      { solutions;
        num_reads = solved.num_reads;
        elapsed_seconds = solved.elapsed_seconds;
        num_logical_vars = logical.Problem.num_vars;
        num_physical_qubits = solved.num_physical_qubits;
        assertion_failures;
        timed_out = solved.timed_out })

let valid_solutions result =
  List.filter (fun s -> s.valid && s.pins_respected) result.solutions

(* --- Section 6.1 metrics --------------------------------------------------- *)

type static_properties = {
  verilog_lines : int;
  edif_lines : int;
  qmasm_lines : int;
  stdcell_lines : int;
  logical_vars : int;
  logical_terms : int;
}

let count_code_lines src =
  String.split_on_char '\n' src
  |> List.filter (fun line ->
      let line =
        match Qmasm.Str_split.find_substring line "//" with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      String.trim line <> "")
  |> List.length

let static_properties t =
  { verilog_lines = count_code_lines t.verilog_src;
    edif_lines = edif_lines t.netlist;
    qmasm_lines = Qmasm.Parser.line_count t.qmasm_src;
    stdcell_lines = Qac_cells.Stdcell.line_count ();
    logical_vars = t.program.Qmasm.Assemble.problem.Problem.num_vars;
    logical_terms = Problem.num_terms t.program.Qmasm.Assemble.problem }
