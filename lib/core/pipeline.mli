(** The end-to-end compiler of the paper: classical Verilog code down to a
    (logical or physical) quadratic pseudo-Boolean function, executed
    forward or backward on a classical annealing substrate, with results
    reported in terms of the source program's ports.

    Stages (section 4): Verilog -> elaborated module -> optimized gate
    netlist (time-unrolled when sequential) -> EDIF -> QMASM -> logical
    Ising problem -> (optionally) minor-embedded physical Ising problem ->
    samples -> named, verified solutions.  The EDIF stage parses no text:
    QMASM is generated from {!Qac_edif.Edif.reread}, the netlist the EDIF
    reader would return for the text (a tested equation), and the text
    itself is rendered only on demand with {!Qac_edif.Edif.to_string}.
    The QMASM stage parses no text either: edif2qmasm writes [qmasm_src]
    and the statements it parses to in one walk
    ({!Qac_edif2qmasm.Edif2qmasm.convert}), and those statements go
    straight to macro expansion.

    Every stage failure raises [Qac_diag.Diag.Error], tagged with the stage
    that failed (["verilog-parse"], ["qmasm-assemble"], ["pipeline"], ...).
    Pass a [Qac_diag.Trace.t] to [compile]/[run] to record one timed span
    per stage with size counters (gates, nets, statements, logical vars and
    terms, physical qubits, max chain length). *)

type t = {
  verilog_src : string;
  elaborated : Qac_verilog.Elab.t;
  netlist : Qac_netlist.Netlist.t;
      (** optimized; combinational (post-unroll); its EDIF text is
          [Qac_edif.Edif.to_string netlist] *)
  ff_names : string array;
  steps : int option;  (** unroll depth used, for sequential sources *)
  qmasm_src : string;
  statements : Qac_qmasm.Ast.stmt list;  (** flat (macro-expanded) program *)
  program : Qac_qmasm.Assemble.t;  (** the logical Ising problem + symbols *)
  options : Qac_qmasm.Assemble.options;
      (** assembly options the program was compiled with; [run] reuses them
          when re-assembling with pins *)
}

(** [compile ?top ?steps ?optimize ?options ?trace src] runs the front half.
    Sequential sources require [steps] (the unroll depth, section 4.3.3).
    [options] control QMASM assembly; the default merges chains (qmasm's
    variable-merging optimization), which is what the paper's section 6.1
    variable counts reflect.  [trace] records the spans
    parse, elab, synth, unroll, edif-roundtrip, e2q, expand, assemble;
    a traced compile counts the EDIF text's lines on the EDIF tree, before
    the edif-roundtrip span opens, and attaches the count to that span as
    [edif-lines]. *)
val compile :
  ?top:string ->
  ?steps:int ->
  ?optimize:bool ->
  ?options:Qac_qmasm.Assemble.options ->
  ?trace:Qac_diag.Trace.t ->
  string ->
  t

val default_options : Qac_qmasm.Assemble.options
(** merge_chains = true. *)

(** {1 Compile memoization}

    The front half is a pure function of (source, top, steps, optimize,
    options), so repeated compiles of the same source — the serving tier's
    common case — can return the already-compiled value by reference.
    Mutex-guarded; safe to share across domains. *)

type compile_cache

val compile_cache_create : unit -> compile_cache

val shared_compile_cache : unit -> compile_cache
(** The process-wide cache {!compile_cached} defaults to.  It exists from
    module initialisation on, so every domain gets the same cache. *)

type compile_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

val compile_cache_stats : compile_cache -> compile_cache_stats

val compile_cached :
  ?cache:compile_cache ->
  ?top:string ->
  ?steps:int ->
  ?optimize:bool ->
  ?options:Qac_qmasm.Assemble.options ->
  ?trace:Qac_diag.Trace.t ->
  string ->
  t
(** Like {!compile}, but memoized on a digest of the source plus the
    options.  A hit (miss) increments the ["compile-cache-hits"]
    (["compile-cache-misses"]) trace summary, accumulating across calls
    that share a trace; a miss additionally records the usual compile
    spans.  Concurrent misses on one key may compile twice — both produce
    identical values and the compile itself runs outside the cache lock. *)

(** {1 Execution} *)

type solver =
  | Exact_solver
  | Sa of Qac_anneal.Sa.params
  | Sqa of Qac_anneal.Sqa.params  (** path-integral simulated quantum annealing *)
  | Tabu of Qac_anneal.Tabu.params
  | Qbsolv of Qac_anneal.Qbsolv.params

type target =
  | Logical  (** solve the logical problem directly *)
  | Physical of {
      graph : Qac_chimera.Chimera.t;
          (** a Chimera or Pegasus graph ({!Qac_chimera.Family.of_topology}
              raises [Invalid_argument] for anything else) *)
      chain_strength : float option;
      roof_duality : bool;  (** elide a-priori-determined qubits (section 4.4) *)
    }
      (** a batch of one on the tiler's capacity ladder
          ({!Qac_embed.Tiler.ladders} at {!Qac_embed.Tiler.default_params}
          with this [chain_strength]): the embedding a one-job
          [Qac_serve.Serve] on [graph] finds, so a job's response is
          bit-identical locally and served.  A chip with broken qubits
          bounds the job by its largest clean block. *)

val dwave_target : target
(** C16 Chimera, the tiler's default ladder, auto chain strength, roof
    duality off. *)

(** [dispatch_solver ?num_threads ?deadline solver problem] runs one solver
    on one problem.  SA/SQA/tabu read batches go through
    {!Qac_anneal.Parallel} at every thread count, so the sample set depends
    only on the seed — the same results whether [num_threads] is 1 (the
    default) or many.  Exact and qbsolv solvers always run sequentially.
    [deadline] (absolute [Unix.gettimeofday] instant) makes the annealers
    return best-so-far with [Sampler.response.timed_out] set; the exact
    solver ignores it (its size cap already bounds runtime).  Raises
    [Diag.Error] (stage ["pipeline"]) when the exact solver is given more
    than {!Qac_ising.Exact.max_vars} variables. *)
val dispatch_solver :
  ?num_threads:int ->
  ?deadline:float ->
  solver ->
  Qac_ising.Problem.t ->
  Qac_anneal.Sampler.response

(** [composite_solve ?num_threads ?postprocess solver ~deadline problem] is
    {!dispatch_solver} wrapped in {!Qac_anneal.Composite.wrap}: the one
    solve function behind {!solve} and the serving tier's per-job solver.
    [deadline] bounds the base solve and the polish loop alike. *)
val composite_solve :
  ?num_threads:int ->
  ?postprocess:Qac_anneal.Composite.postprocess ->
  solver ->
  deadline:float option ->
  Qac_ising.Problem.t ->
  Qac_anneal.Sampler.response

type solve_result = {
  reads : (Qac_ising.Problem.spin array * int) list;
      (** one entry per read, in sampler order: the logical spins and that
          read's broken-chain count (0 on logical targets) *)
  num_physical_qubits : int option;  (** [Some] for physical targets *)
  num_reads : int;
      (** the length of [reads]: the reads returned, the figure a served
          response reports.  Under [Discard] that is the reads kept after
          dropping broken ones; the sampler's own count stays on the solve
          span's [reads] counter, and the reads dropped on the unembed
          span's [discarded-reads] counter. *)
  elapsed_seconds : float;
  timed_out : bool;
}

(** [solve ~solver ~target problem] is the execution half of {!run}, for
    any logical Ising problem — a compiled circuit, a SAT formula or a
    QMASM program.  [trace] records the spans (qpbo, embed — physical
    targets only,) solve, unembed.  [num_threads] is forwarded to
    {!dispatch_solver} and, on physical targets, to the ladder's CMR tries
    ({!Qac_embed.Cmr.params.num_threads}); neither changes the result.
    A physical target embeds through {!Qac_embed.Tiler.ladders} with
    [embed_cache] (default: the process-wide {!Qac_embed.Cache.shared}),
    places the job on the empty chip ({!Qac_embed.Tiler.place}) and solves
    it with {!Qac_embed.Tiler.solve_placed}: the ladder records an
    [embed-cache-hit] counter on a warm cache and no [embed] span, or an
    [embed] span with [embed-cache-miss], [physical-qubits] and
    [max-chain-length] counters.  A problem the ladder cannot place raises
    [Qac_diag.Diag.Error].
    [timeout_ms] bounds the solve stage: the absolute deadline is computed
    when solving starts, samplers return best-so-far on expiry, and
    [timed_out] (plus a [timed-out] counter on the solve span) reports
    whether it was hit.
    [postprocess] ({!Qac_anneal.Composite.postprocess}, default [`None])
    wraps the solve: [`Polish] steepest-descends every sample (the
    deadline bounds the polish loop too), [`Gauge] solves under a
    spin-reversal transform.  [chain_break]
    ({!Qac_embed.Embedding.chain_break}, default [Vote]) sets how broken
    chains resolve on physical targets
    ({!Qac_embed.Embedding.unembed_reads}): [Discard] drops broken reads
    (falling back to voting when every read is broken, with a
    [discarded-reads] counter on the unembed span), [Polish]
    greedy-repairs the physical configuration before voting. *)
val solve :
  ?trace:Qac_diag.Trace.t ->
  ?num_threads:int ->
  ?embed_cache:Qac_embed.Cache.t ->
  ?timeout_ms:float ->
  ?postprocess:Qac_anneal.Composite.postprocess ->
  ?chain_break:Qac_embed.Embedding.chain_break ->
  solver:solver ->
  target:target ->
  Qac_ising.Problem.t ->
  solve_result

type solution = {
  ports : (string * int) list;  (** every module port, as an integer *)
  assignment : (string * bool) list;  (** all visible symbols *)
  energy : float;  (** logical energy *)
  num_occurrences : int;
  valid : bool;
      (** the section 5.1 check: the port values form a consistent
          input/output relation when the netlist is run forward *)
  assertions_ok : bool;
      (** every QMASM [!assert] (cell-level consistency) holds; a sample can
          be port-valid while an internal cell sits in an excited state *)
  pins_respected : bool;
      (** pins are energetic biases, not hard constraints; a sample may
          satisfy the circuit relation yet drift off a pinned value *)
  broken_chains : int;  (** 0 for logical runs *)
}

type run_result = {
  solutions : solution list;
      (** distinct, by ascending energy, then ports; equal keys keep the
          order their first reads arrived in *)
  num_reads : int;  (** {!solve_result.num_reads}: the reads verified *)
  elapsed_seconds : float;
  num_logical_vars : int;
  num_physical_qubits : int option;  (** [Some] for physical runs *)
  assertion_failures : int;  (** solutions violating a QMASM [!assert] *)
  timed_out : bool;
      (** the solve stage hit its [timeout_ms] deadline; solutions are the
          sampler's best-so-far partial results *)
}

(** [run t ~pins ~solver ~target] executes the compiled program.  [pins]
    fixes ports (or port bits, via ["C[3]"] names) to integer values —
    forward execution pins inputs, backward execution pins outputs
    (section 4.3.6).  Solutions are verified against the netlist and
    reported whether valid or not (the paper: invalid samples are detected
    in polynomial time and discarded by the caller).
    [pin_source] is raw QMASM pin text (one ["name := value"] per line,
    binary strings sized by the bracket range, as on the qmasm command
    line); [pins] is the programmatic integer form.  [run] is the
    assemble span, then {!solve}, then the verify span; the other optional
    arguments are {!solve}'s, and [trace] also records assemble and
    verify. *)
val run :
  ?pins:(string * int) list ->
  ?pin_source:string ->
  ?trace:Qac_diag.Trace.t ->
  ?num_threads:int ->
  ?embed_cache:Qac_embed.Cache.t ->
  ?timeout_ms:float ->
  ?postprocess:Qac_anneal.Composite.postprocess ->
  ?chain_break:Qac_embed.Embedding.chain_break ->
  solver:solver ->
  target:target ->
  t ->
  run_result

val assemble_with_pins :
  ?pins:(string * int) list -> ?pin_source:string -> t -> Qac_qmasm.Assemble.t
(** The assemble stage of {!run} alone: re-assemble the program with pins
    appended, reusing the compile-time assembly options.  Lets callers (the
    batch server) build the pinned logical problem without solving. *)

val solution_of_spins :
  t ->
  program:Qac_qmasm.Assemble.t ->
  ?num_occurrences:int ->
  ?broken_chains:int ->
  Qac_ising.Problem.spin array ->
  solution
(** Name and verify one logical configuration against [program] (as built
    by {!assemble_with_pins}): port integers, the netlist relation check,
    assertion and pin checks.  [solution_of_spins t ~program] resolves
    every symbol, port bit and pin to its variable once; apply it to each
    read, as the verify stage of {!run} does for every distinct read.
    Raises [Qac_diag.Diag.Error] when [spins] is not one spin per
    variable. *)

val valid_solutions : run_result -> solution list
(** Solutions that satisfy the circuit relation, every assertion, and every
    pin — i.e. the answers one would keep after the polynomial-time check of
    section 5.1. *)

(** {1 Introspection for the section 6.1 metrics} *)

type static_properties = {
  verilog_lines : int;
  edif_lines : int;
  qmasm_lines : int;  (** excluding the standard-cell library *)
  stdcell_lines : int;
  logical_vars : int;
  logical_terms : int;
}

val static_properties : t -> static_properties

val port_width : t -> string -> int option
