(* The four qacbench workloads.  Each drives the public API of the layers it
   exercises from outside: [Pipeline] for the local workloads, and for the
   served ones a [Shard] pool behind a [Server] on a Unix socket in this
   process, loaded by one client thread on one connection.

   Inputs come from [config.seed] alone.  What sets how much work a run
   holds — the compile corpus, the factoring widths, the circuit mix, the
   SAT clause skeletons — is fixed, and the seed draws everything else
   (pins, operands, gauges, weights, arrival times, order), so runs with
   different seeds measure the same amount of work. *)

module P = Qac_core.Pipeline
module Trace = Qac_diag.Trace
module Serve = Qac_serve.Serve
module Shard = Qac_serve.Shard
module Server = Qac_serve.Server
module Protocol = Qac_serve.Protocol
module Cache = Qac_embed.Cache
module Sampler = Qac_anneal.Sampler
module Sa = Qac_anneal.Sa
module Dimacs = Qac_sat.Dimacs
module Sat = Qac_sat.Compile
module Problem = Qac_ising.Problem
module R = Report

type config = {
  seed : int;
  seconds : float;  (** measured window; smoke runs use fixed job counts *)
  smoke : bool;
  traced : bool;
  scratch : string;  (** process-private directory for the socket and store *)
}

(* Bench-side timers read the monotonic clock in nanoseconds, so a single
   short call still gets a distinct reading. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ms s = 1000.0 *. s

(* Canonical answers of the first [digest_limit] jobs name a run's output:
   two runs with the same seed agree on them whatever their length. *)
let digest_limit = 32

(* --- Layer accounting ---------------------------------------------------- *)

(* Sums and counts per layer quantity.  Set-up work lands in [setup], the
   measured window in [window]; a layer the window never reaches reports
   its set-up figure instead of nothing.  Shard domains report solver
   calls concurrently, hence the lock. *)
type tracer = {
  on : bool;
  lock : Mutex.t;
  setup : (string, float * int) Hashtbl.t;
  window : (string, float * int) Hashtbl.t;
  mutable in_window : bool;
  mutable t0 : float;
  mutable next_id : int;
  mutable spans : R.span list;
}

let tracer on =
  { on;
    lock = Mutex.create ();
    setup = Hashtbl.create 64;
    window = Hashtbl.create 64;
    in_window = false;
    t0 = now ();
    next_id = 0;
    spans = [] }

let note tr name v =
  if tr.on then
    Mutex.protect tr.lock (fun () ->
        let tbl = if tr.in_window then tr.window else tr.setup in
        let s, n = Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0) in
        Hashtbl.replace tbl name (s +. v, n + 1))

let lookup tr name =
  match Hashtbl.find_opt tr.window name with
  | Some e -> e
  | None -> Option.value (Hashtbl.find_opt tr.setup name) ~default:(0.0, 0)

let total tr name = fst (lookup tr name)
let calls tr name = snd (lookup tr name)

let avg tr name =
  let s, n = lookup tr name in
  if n = 0 then 0.0 else s /. float_of_int n

let span tr ?(parent = -1) ~job name start stop =
  if not tr.on then -1
  else begin
    let id = tr.next_id in
    tr.next_id <- id + 1;
    tr.spans <- { R.id; parent; job; span = name; start = start -. tr.t0; stop = stop -. tr.t0 } :: tr.spans;
    id
  end

let open_window tr =
  tr.in_window <- true;
  tr.t0 <- now ()

let pipeline_trace tr = if tr.on then Some (Trace.create ()) else None

let compile_stages =
  [ ("parse", "verilog.parse");
    ("elab", "verilog.elab");
    ("synth", "verilog.synth");
    ("unroll", "netlist.unroll");
    ("edif-roundtrip", "edif.roundtrip");
    ("e2q", "edif2qmasm.e2q");
    ("expand", "qmasm.expand");
    ("assemble", "qmasm.assemble") ]

let run_stages = [ ("assemble", "core.pin_assemble"); ("solve", "anneal.solve"); ("verify", "core.verify") ]

(* Fold one [Pipeline] trace into the layer sums and re-emit its stages as
   children of span [parent]; the stages ran back to back from [start]. *)
let record_pipeline tr ~stages ~job ~parent ~start = function
  | None -> ()
  | Some trace ->
    ignore
      (List.fold_left
         (fun t (s : Trace.span) ->
            Option.iter
              (fun layer -> note tr (layer ^ "_ms") (ms s.Trace.elapsed_seconds))
              (List.assoc_opt s.Trace.name stages);
            List.iter
              (fun (key, v) ->
                 match (s.Trace.name, key) with
                 | "unroll", "gates" -> note tr "netlist.gates" (float_of_int v)
                 | "edif-roundtrip", "edif-lines" -> note tr "edif.lines" (float_of_int v)
                 | "expand", "statements" -> note tr "qmasm.statements" (float_of_int v)
                 | "solve", "timed-out" -> note tr "anneal.timed_out" (float_of_int v)
                 | _ -> ())
              s.Trace.counters;
            let stop = t +. s.Trace.elapsed_seconds in
            ignore (span tr ~parent ~job s.Trace.name t stop);
            stop)
         start (Trace.spans trace))

(* One front-end compile, timed from outside and broken into stages. *)
let compile tr ~job ?steps ?cache src =
  let ct = pipeline_trace tr in
  let hits () = Option.fold ~none:0 ~some:(fun c -> (P.compile_cache_stats c).P.hits) cache in
  let h0 = hits () in
  let s = now () in
  let t =
    match cache with
    | None -> P.compile ?trace:ct ?steps src
    | Some cache -> P.compile_cached ~cache ?trace:ct ?steps src
  in
  let e = now () in
  let hit = hits () > h0 in
  if Option.is_some cache then note tr "core.compile_cache_hit" (if hit then 1.0 else 0.0);
  if not hit then note tr "frontend.compile_ms" (ms (e -. s));
  let parent = span tr ~job "compile" s e in
  record_pipeline tr ~stages:compile_stages ~job ~parent ~start:s ct;
  (t, s, e)

let note_solve tr ~seconds ~(response : Sampler.response) ~sweeps ~vars =
  note tr "anneal.solve_ms" (ms seconds);
  note tr "anneal.timed_out" (if response.Sampler.timed_out then 1.0 else 0.0);
  note tr "anneal.spin_updates"
    (float_of_int response.Sampler.num_reads *. float_of_int sweeps *. float_of_int vars)

(* Verification as the layers report it: distinct and valid answers, and
   the share of reads whose answer survives the check. *)
let note_answers tr ~seconds ~distinct ~valid ~valid_reads ~reads =
  note tr "core.verify_ms" (ms seconds);
  note tr "core.distinct_solutions" (float_of_int distinct);
  note tr "core.valid_solutions" (float_of_int valid);
  note tr "anneal.valid_reads" (float_of_int valid_reads);
  note tr "anneal.reads" (float_of_int reads)

(* The solver closure handed to [Shard.create], timed from outside. *)
let served_solver tr (sa : Sa.params) =
  let solve ~deadline p = P.dispatch_solver ~num_threads:1 ?deadline (P.Sa sa) p in
  if not tr.on then solve
  else fun ~deadline p ->
    let s = now () in
    let response = solve ~deadline p in
    note_solve tr ~seconds:(now () -. s) ~response ~sweeps:sa.Sa.num_sweeps ~vars:p.Problem.num_vars;
    response

(* --- Sources ------------------------------------------------------------- *)

(* Figure 2, Listing 5 and Listing 7 of the paper, and Listing 3's counter
   widened to six bits as in experiment E10. *)
let fig2_src =
  "module circuit (s, a, b, c); input s; input a; input b; output [1:0] c;\n\
   assign c = s ? a + b : a - b; endmodule"

let circsat_src =
  {|module circsat (a, b, c, y);
  input a, b, c;
  output y;
  wire [1:10] x;
  assign x[1] = a;
  assign x[2] = b;
  assign x[3] = c;
  assign x[4] = ~x[3];
  assign x[5] = x[1] | x[2];
  assign x[6] = ~x[4];
  assign x[7] = x[1] & x[2] & x[4];
  assign x[8] = x[5] | x[6];
  assign x[9] = x[6] | x[7];
  assign x[10] = x[8] & x[9] & x[7];
  assign y = x[10];
endmodule|}

let australia_src =
  {|module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD && SA != QLD && SA != NSW
              && SA != VIC && QLD != NSW && NSW != VIC && NSW != ACT;
endmodule|}

let counter_src =
  {|module count (clk, inc, reset, out);
  input clk;
  input inc;
  input reset;
  output [5:0] out;
  reg [5:0] var;
  always @(posedge clk)
    if (reset)
      var <= 0;
    else
      if (inc)
        var <= var + 1;
  assign out = var;
endmodule|}

let mult_src w =
  Printf.sprintf
    "module mult (a, b, p); input [%d:0] a; input [%d:0] b; output [%d:0] p;\n\
     assign p = a * b; endmodule"
    (w - 1) (w - 1) ((2 * w) - 1)

let binop_src w op =
  Printf.sprintf
    "module binop (a, b, y); input [%d:0] a; input [%d:0] b; output [%d:0] y;\n\
     assign y = a %s b; endmodule"
    (w - 1) (w - 1) w op

let rec bit_width n = if n = 0 then 0 else 1 + bit_width (n lsr 1)

(* The section 5.1 recipe: a checker that the selected weights sum to
   [target], to be run backward by pinning [valid]. *)
let subset_src weights =
  let bits = bit_width (List.fold_left ( + ) 0 weights) in
  let terms =
    List.mapi (fun i w -> Printf.sprintf "(sel[%d] ? %d : 0)" i w) weights |> String.concat " + "
  in
  Printf.sprintf
    "module subset_sum (sel, target, valid); input [%d:0] sel; input [%d:0] target;\n\
     output valid; wire [%d:0] sum; assign sum = %s; assign valid = sum == target; endmodule"
    (List.length weights - 1) (bits - 1) (bits - 1) terms

(* examples/demo.cnf *)
let demo_cnf = "p cnf 4 6\n1 2 -3 0\n-1 3 4 0\n2 3 -4 0\n-2 -3 4 0\n1 -2 4 0\n-1 -3 -4 0\n"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let num_vars (t : P.t) = t.P.program.Qac_qmasm.Assemble.problem.Problem.num_vars

(* Name and check every sample of a response, as the serving tier's
   clients must: a valid answer satisfies the circuit, its assertions and
   its pins. *)
let verify_samples t ~program (response : Sampler.response) =
  let sols =
    List.map
      (fun (x : Sampler.sample) ->
         P.solution_of_spins t ~program ~num_occurrences:x.Sampler.num_occurrences x.Sampler.spins)
      response.Sampler.samples
  in
  (sols, List.filter (fun s -> s.P.valid && s.P.assertions_ok && s.P.pins_respected) sols)

let occurrences sols = List.fold_left (fun acc s -> acc + s.P.num_occurrences) 0 sols

(* --- Common warm-up ------------------------------------------------------ *)

(* Every set-up starts by compiling Figure 2, solving it once and checking
   the answer, so each pays the front end's, the annealer's and verify's
   first-call costs. *)
let warm_pipeline tr =
  let t, _, _ = compile tr ~job:(-1) fig2_src in
  let program = P.assemble_with_pins t in
  let sa = { Sa.default_params with Sa.num_reads = 1 } in
  let s = now () in
  let response = P.dispatch_solver (P.Sa sa) program.Qac_qmasm.Assemble.problem in
  let v = now () in
  let sols, valid = verify_samples t ~program response in
  let e = now () in
  note_solve tr ~seconds:(v -. s) ~response ~sweeps:sa.Sa.num_sweeps ~vars:(num_vars t);
  note_answers tr ~seconds:(e -. v) ~distinct:(List.length sols) ~valid:(List.length valid)
    ~valid_reads:(occurrences valid) ~reads:response.Sampler.num_reads

(* --- Serving plumbing ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable request_bytes : int;
  mutable reply_bytes : int;
}

(* [Protocol.call] with the frame sizes counted. *)
let call c request =
  let payload = Protocol.json_to_string (Protocol.request_to_json request) in
  Protocol.write_frame c.fd payload;
  c.request_bytes <- c.request_bytes + 4 + String.length payload;
  match Protocol.read_frame c.fd with
  | None -> failwith "server closed the connection"
  | Some reply ->
    c.reply_bytes <- c.reply_bytes + 4 + String.length reply;
    Protocol.reply_of_json (Protocol.json_of_string reply)

type server = {
  pool : Shard.t;
  addr : Unix.sockaddr;
  conn : conn;
  domain : (int * Serve.result) list Domain.t;
}

let start_server cfg pool =
  let addr = Unix.ADDR_UNIX (Filename.concat cfg.scratch "server.sock") in
  let server = Server.create ~pool ~sockaddr:addr () in
  let domain = Domain.spawn (fun () -> Server.run server) in
  let conn = { fd = Protocol.connect addr; request_bytes = 0; reply_bytes = 0 } in
  match call conn Protocol.Stats with
  | Protocol.Stats_json _ -> { pool; addr; conn; domain }
  | _ -> failwith "unexpected reply to stats"

(* Shut the server down and wait for its domain, over a fresh connection
   when the client's own one broke. *)
let stop_server s =
  let shutdown c = ignore (call c Protocol.Shutdown) in
  (try shutdown s.conn
   with _ ->
     let fd = Protocol.connect s.addr in
     Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
         shutdown { fd; request_bytes = 0; reply_bytes = 0 }));
  (try Unix.close s.conn.fd with Unix.Unix_error _ -> ());
  ignore (Domain.join s.domain)

(* The client's view of in-flight jobs: per shard, tickets in submission
   order.  A shard finishes its jobs batch by batch, so a sweep polls each
   shard's oldest tickets and moves on at the first one still pending. *)
type inflight = {
  queues : (int * int) Queue.t array;  (** (job, ticket) per shard *)
  mutable polls : int;
  mutable poll_rtts : float list;
}

let inflight num_shards =
  { queues = Array.init num_shards (fun _ -> Queue.create ()); polls = 0; poll_rtts = [] }

let outstanding f = Array.fold_left (fun acc q -> acc + Queue.length q) 0 f.queues

let sweep c f ~between ~on_done =
  Array.iter
    (fun q ->
       let rec go () =
         between ();
         match Queue.peek_opt q with
         | None -> ()
         | Some (job, ticket) ->
           let s = now () in
           let reply = call c (Protocol.Poll ticket) in
           let e = now () in
           f.polls <- f.polls + 1;
           f.poll_rtts <- (e -. s) :: f.poll_rtts;
           (match reply with
            | Protocol.Completed r ->
              ignore (Queue.pop q);
              on_done job r e;
              go ()
            | Protocol.Pending -> ()
            | _ -> failwith "unexpected reply to poll")
       in
       go ())
    f.queues

let await_all c f ~poll_interval ~on_done =
  while outstanding f > 0 do
    sweep c f ~between:ignore ~on_done;
    if outstanding f > 0 then Unix.sleepf poll_interval
  done

(* Everything scheduling may change is zeroed; what is left is the answer. *)
let canonical (r : Serve.result) =
  Protocol.json_to_string
    (Protocol.result_to_json
       { r with
         Serve.batch = 0;
         wait_seconds = 0.0;
         solve_seconds = 0.0;
         response = Option.map (fun resp -> { resp with Sampler.elapsed_seconds = 0.0 }) r.Serve.response })

(* --- Results assembly ----------------------------------------------------- *)

(* One job as the end-to-end metrics see it. *)
type job = {
  due : float;  (** scheduled send (open loop) or issue time *)
  finished : float option;
  solved : bool;
  failed : bool;
}

let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  match
    List.find_map
      (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      (String.split_on_char '\n' status)
  with
  | Some mb -> mb
  | None -> failwith "VmHWM missing from /proc/self/status"

(* A served job as the client saw it (send and completion) and as the
   server reported it (queue wait and solve time). *)
type served_job = {
  sjob : int;
  sent_at : float;
  done_at : float;
  wait_s : float;
  solve_s : float;
}

let served_job i (r : Serve.result) ~sent ~finished =
  { sjob = i; sent_at = sent; done_at = finished; wait_s = r.Serve.wait_seconds; solve_s = r.Serve.solve_seconds }

(* What a served workload's layers did in the window: deltas of the pool's
   public counters, the jobs' own timings and the client's wire
   accounting. *)
type served = {
  before : Shard.shard_stats array;
  after : Shard.shard_stats array;
  completed : served_job list;
  shed : int;
  submit_rtts : float list;
  inflight : inflight;
  conn : conn;
}

(* What a measured window leaves behind, for the metrics. *)
type measured = {
  jobs : job list;
  first_send : float;
  vars : float list;  (** logical variables of each distinct program produced *)
  lags : float list;  (** send time minus due time, per job *)
  backlog : int;  (** jobs in flight when the last one was sent *)
  gc : Gc.stat * Gc.stat;
  peak_rss : float;
  served : served option;
  checks : R.check list;
  guards : R.check list;
  answers : string list;  (** canonical answers, first [digest_limit] jobs *)
}

let m name value unit_ = { R.name; value; unit_ }

(* Every end-to-end metric but [setup_s], which the caller times. *)
let end_to_end x =
  let latencies = List.filter_map (fun j -> Option.map (fun f -> f -. j.due) j.finished) x.jobs in
  let last = List.fold_left (fun acc j -> Option.fold ~none:acc ~some:(max acc) j.finished) x.first_send x.jobs in
  let solved = List.length (List.filter (fun j -> j.solved) x.jobs) in
  [ m "jobs_per_s" (R.ratio (float_of_int (List.length latencies)) (last -. x.first_send)) "1/s";
    m "latency_p50_ms" (ms (R.percentile latencies 0.5)) "ms";
    m "latency_p90_ms" (ms (R.percentile latencies 0.9)) "ms";
    m "solved_frac" (R.ratio (float_of_int solved) (float_of_int (List.length x.jobs))) "frac";
    m "ising_vars_mean" (R.mean x.vars) "vars";
    m "peak_rss_mb" x.peak_rss "MB" ]

let served_layers ~jobs_f ~latency_s ~wall_s = function
  | None ->
    List.map (fun (n, u) -> m n 0.0 u)
      [ ("embed.cache_hits", "count"); ("embed.cache_misses", "count");
        ("embed.store_hits", "count"); ("embed.evictions", "count");
        ("embed.hit_rate", "frac"); ("embed.lookups_per_job", "count");
        ("serve.batches", "count"); ("serve.jobs_per_batch", "count");
        ("serve.occupancy", "frac"); ("serve.deferrals", "count");
        ("serve.retries", "count"); ("serve.coalesced", "count");
        ("serve.shed", "count"); ("serve.shard_imbalance", "ratio");
        ("serve.busy_frac", "frac"); ("serve.nonsolve_frac", "frac");
        ("serve.queue_wait_frac", "frac"); ("wire.polls_per_job", "count");
        ("wire.request_bytes_per_job", "bytes"); ("wire.reply_bytes_per_job", "bytes") ]
  | Some s ->
    let delta f = Array.fold_left (fun acc x -> acc +. f x) 0.0 s.after -. Array.fold_left (fun acc x -> acc +. f x) 0.0 s.before in
    let cache f (x : Shard.shard_stats) = float_of_int (f x.Shard.cache) in
    let serve f (x : Shard.shard_stats) = float_of_int (f x.Shard.serve) in
    let busy_s =
      delta (fun (x : Shard.shard_stats) ->
          R.ratio (float_of_int x.Shard.serve.Serve.jobs_done) x.Shard.serve.Serve.jobs_per_second)
    in
    let hits = delta (cache (fun c -> c.Cache.hits)) and misses = delta (cache (fun c -> c.Cache.misses)) in
    let batches = delta (serve (fun v -> v.Serve.batches)) in
    let per_shard =
      Array.to_list
        (Array.map2
           (fun (b : Shard.shard_stats) (a : Shard.shard_stats) ->
              float_of_int (a.Shard.serve.Serve.jobs_done - b.Shard.serve.Serve.jobs_done))
           s.before s.after)
    in
    let shards = float_of_int (Array.length s.after) in
    let occupancy =
      R.mean (Array.to_list (Array.map (fun (x : Shard.shard_stats) -> x.Shard.serve.Serve.mean_occupancy) s.after))
    in
    let waits = List.map (fun j -> j.wait_s) s.completed in
    let solve_s = List.fold_left (fun acc j -> acc +. j.solve_s) 0.0 s.completed in
    [ m "embed.cache_hits" hits "count";
      m "embed.cache_misses" misses "count";
      m "embed.store_hits" (delta (cache (fun c -> c.Cache.store_hits))) "count";
      m "embed.evictions" (delta (cache (fun c -> c.Cache.evictions))) "count";
      m "embed.hit_rate" (R.ratio hits (hits +. misses)) "frac";
      m "embed.lookups_per_job" ((hits +. misses) /. jobs_f) "count";
      m "serve.batches" batches "count";
      m "serve.jobs_per_batch" (R.ratio (delta (serve (fun v -> v.Serve.placed))) batches) "count";
      m "serve.occupancy" occupancy "frac";
      m "serve.deferrals" (delta (serve (fun v -> v.Serve.deferrals))) "count";
      m "serve.retries" (delta (serve (fun v -> v.Serve.retries))) "count";
      m "serve.coalesced" (delta (serve (fun v -> v.Serve.coalesced))) "count";
      m "serve.shed" (float_of_int s.shed) "count";
      m "serve.shard_imbalance" (R.ratio (List.fold_left max 0.0 per_shard) (R.mean per_shard)) "ratio";
      m "serve.busy_frac" (R.ratio busy_s (shards *. wall_s)) "frac";
      m "serve.nonsolve_frac" (R.ratio (busy_s -. solve_s) busy_s) "frac";
      m "serve.queue_wait_frac" (R.ratio (List.fold_left ( +. ) 0.0 waits) latency_s) "frac";
      m "wire.polls_per_job" (float_of_int s.inflight.polls /. jobs_f) "count";
      m "wire.request_bytes_per_job" (float_of_int s.conn.request_bytes /. jobs_f) "bytes";
      m "wire.reply_bytes_per_job" (float_of_int s.conn.reply_bytes /. jobs_f) "bytes";
      m "serve.busy_s" busy_s "s";
      m "serve.nonsolve_busy_s" (busy_s -. solve_s) "s";
      m "serve.queue_wait_p50_ms" (ms (R.percentile waits 0.5)) "ms";
      m "serve.queue_wait_p90_ms" (ms (R.percentile waits 0.9)) "ms";
      m "wire.submit_rtt_p50_ms" (ms (R.percentile s.submit_rtts 0.5)) "ms";
      m "wire.poll_rtt_p50_ms" (ms (R.percentile s.inflight.poll_rtts 0.5)) "ms" ]

let layer_metrics tr x =
  let jobs_f = float_of_int (max 1 (List.length x.jobs)) in
  let latency_s =
    List.fold_left (fun acc j -> Option.fold ~none:acc ~some:(fun f -> acc +. (f -. j.due)) j.finished) 0.0 x.jobs
  in
  let wall_s =
    List.fold_left (fun acc j -> Option.fold ~none:acc ~some:(max acc) j.finished) x.first_send x.jobs -. x.first_send
  in
  let g0, g1 = x.gc in
  let stage_ms = List.map (fun (_, layer) -> (layer, total tr (layer ^ "_ms"))) compile_stages in
  let stage_total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 stage_ms in
  List.map (fun (layer, v) -> m (layer ^ "_share") (R.ratio v stage_total) "frac") stage_ms
  @ [ m "frontend.compile_ms" (avg tr "frontend.compile_ms") "ms";
      m "netlist.gates" (avg tr "netlist.gates") "count";
      m "edif.lines" (avg tr "edif.lines") "count";
      m "qmasm.statements" (avg tr "qmasm.statements") "count";
      m "core.compile_cache_hit_rate" (avg tr "core.compile_cache_hit") "frac";
      m "core.verify_ms" (avg tr "core.verify_ms") "ms";
      m "core.distinct_solutions" (avg tr "core.distinct_solutions") "count";
      m "core.valid_solutions" (avg tr "core.valid_solutions") "count";
      m "anneal.solve_ms" (avg tr "anneal.solve_ms") "ms";
      m "anneal.calls" (float_of_int (calls tr "anneal.solve_ms")) "count";
      m "anneal.timed_out" (total tr "anneal.timed_out") "count";
      m "anneal.spin_updates_per_s"
        (R.ratio (total tr "anneal.spin_updates") (total tr "anneal.solve_ms" /. 1000.0)) "1/s";
      m "anneal.valid_read_rate" (R.ratio (total tr "anneal.valid_reads") (total tr "anneal.reads")) "frac";
      m "sat.ancillas" (avg tr "sat.ancillas") "count" ]
  @ served_layers ~jobs_f ~latency_s ~wall_s x.served
  @ [ m "gc.minor_mwords_per_job" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 /. jobs_f) "Mword";
      m "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) "count";
      m "gc.top_heap_mb" (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) "MB";
      m "bench.sched_lag_p99_ms" (ms (R.percentile x.lags 0.99)) "ms";
      m "bench.backlog_at_last_send" (float_of_int x.backlog) "count" ]
  (* Recorded, not gated: per-stage times and the layers only some
     workloads reach. *)
  @ List.map (fun (layer, _) -> m (layer ^ "_ms") (avg tr (layer ^ "_ms")) "ms") stage_ms
  @ List.filter_map
      (fun name -> if calls tr name > 0 then Some (m name (avg tr name) "ms") else None)
      [ "core.pin_assemble_ms"; "sat.parse_ms"; "sat.compile_ms"; "sat.check_ms" ]

let check label ok detail = { R.label; ok; detail }

let finish cfg tr ~workload x =
  let answers = List.filteri (fun i _ -> i < digest_limit) x.answers in
  { R.workload;
    seed = cfg.seed;
    seconds = cfg.seconds;
    smoke = cfg.smoke;
    traced = cfg.traced;
    attempted = List.length x.jobs;
    failed = List.length (List.filter (fun j -> j.failed) x.jobs);
    metrics = end_to_end x;
    layers = (if cfg.traced then layer_metrics tr x else []);
    checks = x.checks;
    guards = x.guards;
    digest = Digest.to_hex (Digest.string (String.concat "\n" answers));
    digest_jobs = List.length answers;
    setup_samples = [];
    spans = tr.spans }

(* The state a served window ends in, with each job's spans: the submit
   round trip, then the server's queue wait and solve, and whatever else
   the server and the poll loop added. *)
let served_measured tr server ~before ~f ~shed ~submit_rtts ~completed =
  List.iter
    (fun j ->
       let root = span tr ~job:j.sjob "job" j.sent_at j.done_at in
       let queued = j.sent_at +. j.wait_s in
       let solved = queued +. j.solve_s in
       ignore (span tr ~parent:root ~job:j.sjob "queue-wait" j.sent_at queued);
       ignore (span tr ~parent:root ~job:j.sjob "solve" queued solved);
       ignore (span tr ~parent:root ~job:j.sjob "server-other" solved j.done_at))
    completed;
  { before; after = Shard.stats server.pool; completed; shed; submit_rtts; inflight = f; conn = server.conn }

(* --- compile-corpus -------------------------------------------------------- *)

type program = {
  pname : string;
  src : string;
  steps : int option;
  expect_vars : int option;  (** sizes experiments E1, E10 and E13 report *)
}

(* 35 programs from seven families.  The corpus is fixed, so code size
   does not depend on the seed; the seed orders each round. *)
let corpus =
  let prog ?steps ?expect_vars pname src = { pname; src; steps; expect_vars } in
  let weights = [ 3; 5; 6; 7; 11; 13; 17; 19; 23; 29; 31; 37 ] in
  List.init 7 (fun i -> prog (Printf.sprintf "mult%d" (i + 2)) (mult_src (i + 2)))
  @ List.init 8 (fun i ->
      let w = 4 * (i + 1) in
      let name, op = if i mod 2 = 0 then ("add", "+") else ("sub", "-") in
      prog (Printf.sprintf "%s%d" name w) (binop_src w op))
  @ List.init 8 (fun i ->
      let steps = i + 1 in
      let expect_vars = List.assoc_opt steps [ (1, 42); (2, 78); (4, 150); (8, 294) ] in
      prog ~steps ?expect_vars (Printf.sprintf "counter%d" steps) counter_src)
  @ List.init 9 (fun i ->
      let k = i + 4 in
      prog (Printf.sprintf "subset%d" k) (subset_src (List.filteri (fun j _ -> j < k) weights)))
  @ [ prog ~expect_vars:16 "fig2" fig2_src;
      prog ~expect_vars:73 "australia" australia_src;
      prog "circsat" circsat_src ]

(* The compiled netlist against the reference interpreter on random input
   vectors: two independent readings of the same Verilog must agree. *)
let comb_agrees rng (t : P.t) =
  let module Eval = Qac_verilog.Eval in
  let ev = Eval.create t.P.elaborated in
  let inputs =
    List.filter_map
      (fun (name, dir, width) -> if dir = Qac_verilog.Ast.Input then Some (name, width) else None)
      t.P.elaborated.Qac_verilog.Elab.ports
  in
  List.for_all
    (fun _ ->
       let values = List.map (fun (name, w) -> (name, Random.State.full_int rng (1 lsl w))) inputs in
       let bits =
         List.map (fun (name, v) -> (name, Array.init (List.assoc name inputs) (fun i -> (v lsr i) land 1 = 1))) values
       in
       let expected = Eval.comb_outputs ev ~inputs:values in
       List.for_all
         (fun (name, out) ->
            let got = Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) out 0 in
            List.assoc name expected land ((1 lsl Array.length out) - 1) = got)
         (Qac_netlist.Sim.comb t.P.netlist ~inputs:bits))
    (List.init 8 Fun.id)

(* Set-up compiles every program once, so the window starts with the
   front end's code and heap warm. *)
let corpus_setup tr =
  warm_pipeline tr;
  List.iter (fun p -> ignore (compile tr ~job:(-1) ?steps:p.steps p.src)) corpus

let compile_corpus cfg tr () =
  let rng = Random.State.make [| cfg.seed; 1 |] in
  let programs = Array.of_list corpus in
  let n = Array.length programs in
  (* The first compile of each program is kept for the checks; later
     compiles must reproduce its size signature. *)
  let first = Array.make n None in
  let signature (t : P.t) =
    (num_vars t, Problem.num_terms t.P.program.Qac_qmasm.Assemble.problem, String.length t.P.qmasm_src)
  in
  let repeats_ok = ref true in
  let jobs = ref [] and lags = ref [] and order_log = ref [] in
  let order = Array.init n Fun.id in
  let g0 = Gc.quick_stat () in
  open_window tr;
  let first_send = now () in
  let t_end = first_send +. cfg.seconds in
  let rec loop i due =
    if if cfg.smoke then i < n else now () < t_end then begin
      (* Each round of [n] compiles takes every program once. *)
      if i mod n = 0 then shuffle rng order;
      let k = order.(i mod n) in
      let p = programs.(k) in
      let t, s, e = compile tr ~job:i ?steps:p.steps p.src in
      lags := (s -. due) :: !lags;
      (match first.(k) with
       | None -> first.(k) <- Some t
       | Some t0 -> if signature t <> signature t0 then repeats_ok := false);
      order_log := k :: !order_log;
      jobs := (k, s, e) :: !jobs;
      loop (i + 1) e
    end
  in
  loop 0 first_send;
  let g1 = Gc.quick_stat () and peak_rss = peak_rss_mb () in
  let check_rng = Random.State.make [| cfg.seed; 2 |] in
  let verdicts =
    Array.mapi
      (fun k t ->
         Option.map
           (fun t ->
              let p = programs.(k) in
              ( Option.fold ~none:true ~some:(( = ) (num_vars t)) p.expect_vars,
                p.steps <> None || comb_agrees check_rng t ))
           t)
      first
  in
  let failing pick =
    List.filteri (fun k _ -> match verdicts.(k) with Some v -> not (pick v) | None -> false) (Array.to_list programs)
    |> List.map (fun p -> p.pname)
  in
  let check_all label pick =
    let bad = failing pick in
    check label (bad = []) (String.concat "," bad)
  in
  let ok k = match verdicts.(k) with Some (a, b) -> a && b && !repeats_ok | None -> false in
  let jobs = List.rev !jobs in
  let answer (k, _, _) =
    match first.(k) with
    | Some t -> Printf.sprintf "%s %s" programs.(k).pname (Digest.to_hex (Digest.string t.P.qmasm_src))
    | None -> ""
  in
  finish cfg tr ~workload:"compile-corpus"
    { jobs = List.map (fun (k, s, e) -> { due = s; finished = Some e; solved = ok k; failed = false }) jobs;
      first_send;
      vars = Array.to_list first |> List.filter_map (Option.map (fun t -> float_of_int (num_vars t)));
      lags = !lags;
      backlog = 0;
      gc = (g0, g1);
      peak_rss;
      served = None;
      checks =
        [ check_all "netlist_matches_interpreter" snd;
          check_all "sizes_match_paper" fst;
          check "repeat_compiles_identical" !repeats_ok "" ];
      guards = [];
      answers = List.map answer (List.filteri (fun i _ -> i < digest_limit) jobs) }

(* --- factor-logical ------------------------------------------------------- *)

(* 64 reads fill one 64-lane annealing block.  Verify costs about a
   millisecond per distinct answer, so more reads buy mostly verify time,
   and a 15 s window would hold fewer than the 100 jobs its 90th
   percentile needs.  One thread, as [vqa run] defaults to: on a 2-vCPU
   host a 2-thread anneal waits for the slower vCPU, which doubled the
   run-to-run spread. *)
let factor_sa cfg =
  { Sa.default_params with Sa.num_reads = 64; num_sweeps = (if cfg.smoke then 100 else 800); seed = 42 }

let factor_widths = [ 3; 4; 5 ]

(* Set-up runs one job of every width, which fills the compile cache the
   window uses and warms the annealer and verify at each size. *)
let factor_setup cfg tr =
  warm_pipeline tr;
  let cache = P.compile_cache_create () in
  List.iter
    (fun w ->
       let t, _, _ = compile tr ~job:(-1) ~cache (mult_src w) in
       ignore (P.run t ~pins:[ ("p", 6) ] ~num_threads:1 ~solver:(P.Sa (factor_sa cfg)) ~target:P.Logical))
    factor_widths;
  cache

(* Section 5.3: pin a multiplier's product and read the factors back. *)
let factor_logical cfg tr cache () =
  let rng = Random.State.make [| cfg.seed; 3 |] in
  let sa = factor_sa cfg in
  let widths = Array.of_list factor_widths in
  let jobs = ref [] and lags = ref [] and answers = ref [] and wrong = ref [] in
  let g0 = Gc.quick_stat () in
  open_window tr;
  let first_send = now () in
  let t_end = first_send +. cfg.seconds in
  let rec loop i due =
    if if cfg.smoke then i < 3 else now () < t_end then begin
      (* Each run of three jobs takes every width once. *)
      if i mod 3 = 0 then shuffle rng widths;
      let w = widths.(i mod 3) in
      let a = 2 + Random.State.int rng ((1 lsl w) - 2) and b = 2 + Random.State.int rng ((1 lsl w) - 2) in
      let product = a * b in
      let t, s, c = compile tr ~job:i ~cache (mult_src w) in
      lags := (s -. due) :: !lags;
      let rt = pipeline_trace tr in
      let r = P.run t ~pins:[ ("p", product) ] ~num_threads:1 ?trace:rt ~solver:(P.Sa sa) ~target:P.Logical in
      let e = now () in
      let parent = span tr ~job:i "job" s e in
      record_pipeline tr ~stages:run_stages ~job:i ~parent ~start:c rt;
      let valid = P.valid_solutions r in
      if tr.on then begin
        note tr "core.distinct_solutions" (float_of_int (List.length r.P.solutions));
        note tr "core.valid_solutions" (float_of_int (List.length valid));
        note tr "anneal.valid_reads" (float_of_int (occurrences valid));
        note tr "anneal.reads" (float_of_int r.P.num_reads);
        note tr "anneal.spin_updates"
          (float_of_int r.P.num_reads *. float_of_int sa.Sa.num_sweeps *. float_of_int r.P.num_logical_vars)
      end;
      List.iter
        (fun s ->
           let fa = List.assoc "a" s.P.ports and fb = List.assoc "b" s.P.ports in
           if fa * fb <> product || List.assoc "p" s.P.ports <> product then
             wrong := Printf.sprintf "%d*%d<>%d" fa fb product :: !wrong)
        valid;
      if i < digest_limit then
        answers :=
          String.concat ";"
            (Printf.sprintf "w%d p%d" w product
             :: List.map
               (fun s ->
                  Printf.sprintf "%s/%d"
                    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.P.ports))
                    s.P.num_occurrences)
               r.P.solutions)
          :: !answers;
      jobs := { due = s; finished = Some e; solved = valid <> []; failed = r.P.timed_out } :: !jobs;
      loop (i + 1) e
    end
  in
  loop 0 first_send;
  let g1 = Gc.quick_stat () and peak_rss = peak_rss_mb () in
  finish cfg tr ~workload:"factor-logical"
    { jobs = List.rev !jobs;
      first_send;
      vars = List.map (fun w -> float_of_int (num_vars (P.compile_cached ~cache (mult_src w)))) factor_widths;
      lags = !lags;
      backlog = 0;
      gc = (g0, g1);
      peak_rss;
      served = None;
      checks =
        [ check "valid_solutions_multiply_to_pin" (!wrong = [])
            (String.concat "," (List.filteri (fun i _ -> i < 5) !wrong)) ];
      guards = [];
      answers = List.rev !answers }

(* --- circuits-open --------------------------------------------------------- *)

let circuit_ops = [ ("add", "+", ( + )); ("xor", "^", ( lxor )); ("and", "&", ( land )); ("or", "|", ( lor )) ]

(* Structures in Zipf rank order: narrow circuits are the popular ones. *)
let circuit_structures ~max_width =
  List.concat_map (fun w -> List.map (fun (name, op, f) -> (w, name, op, f)) circuit_ops) (List.init max_width succ)
  |> Array.of_list

(* Largest-remainder apportionment of [n] jobs over Zipf(s=1) ranks, so
   every seed sends the same mix. *)
let zipf_counts n k =
  let h = List.fold_left (fun acc r -> acc +. (1.0 /. float_of_int r)) 0.0 (List.init k succ) in
  let exact = Array.init k (fun r -> float_of_int n /. (float_of_int (r + 1) *. h)) in
  let counts = Array.map truncate exact in
  let by_remainder = Array.init k Fun.id in
  let rem i = exact.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun i j -> compare (rem j) (rem i)) by_remainder;
  for r = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(by_remainder.(r)) <- counts.(by_remainder.(r)) + 1
  done;
  counts

type circuits = {
  structures : (int * string * string * (int -> int -> int)) array;
  compiled : P.t array;
  server : server;
}

(* Set-up brings a cold server to the state a warm restart leaves: a first
   pool embeds one job of every structure into a fresh store, then the
   measured pool starts over that store with empty caches.  Embedding cost
   therefore shows in [setup_s]; the window sees each structure's first
   job load its embedding from the store and every later one hit. *)
let circuits_setup cfg tr =
  warm_pipeline tr;
  let structures = circuit_structures ~max_width:(if cfg.smoke then 2 else 8) in
  let compiled =
    Array.map
      (fun (w, _, op, _) ->
         let t, _, _ = compile tr ~job:(-1) (binop_src w op) in
         t)
      structures
  in
  let sa =
    { Sa.default_params with
      Sa.num_reads = (if cfg.smoke then 16 else 64);
      num_sweeps = (if cfg.smoke then 50 else 200);
      seed = 42 }
  in
  let tiler_params =
    { Qac_embed.Tiler.default_params with
      Qac_embed.Tiler.slack = 6.0;
      embed_params = Some { Qac_embed.Cmr.default_params with Qac_embed.Cmr.tries = (if cfg.smoke then 2 else 8) } }
  in
  let store = Qac_embed.Store.open_dir (Filename.concat cfg.scratch "store") in
  let pool () =
    Shard.create ~num_shards:2 ~routing:Shard.Affinity ~num_threads:1 ~batch_jobs:16
      ~batch_window_s:0.01 ~tiler_params ~store ~solver:(served_solver tr sa)
      ~graph:(Qac_chimera.Chimera.create 16) ()
  in
  let cold = pool () in
  Array.iteri
    (fun k t ->
       let program = P.assemble_with_pins ~pins:[ ("a", 0); ("b", 0) ] t in
       ignore
         (Shard.submit cold
            { Serve.id = Printf.sprintf "prime%d" k; problem = program.Qac_qmasm.Assemble.problem; timeout_ms = None }))
    compiled;
  ignore (Shard.drain cold);
  { structures; compiled; server = start_server cfg (pool ()) }

let rate cfg = if cfg.smoke then 48.0 else 30.0

let circuits_open cfg tr st () =
  let rng = Random.State.make [| cfg.seed; 4 |] in
  let n = if cfg.smoke then 12 else int_of_float (Float.round (rate cfg *. cfg.seconds)) in
  let order =
    Array.concat
      (Array.to_list (Array.mapi (fun k c -> Array.make c k) (zipf_counts n (Array.length st.structures))))
  in
  shuffle rng order;
  (* Poisson arrivals conditioned on [n] of them in the window. *)
  let schedule = Array.init n (fun _ -> Random.State.float rng (float_of_int n /. rate cfg)) in
  Array.sort compare schedule;
  let jobs =
    Array.map
      (fun k ->
         let w, _, _, _ = st.structures.(k) in
         (k, Random.State.int rng (1 lsl w), Random.State.int rng (1 lsl w)))
      order
  in
  let server = st.server in
  let conn = server.conn in
  let pinned i =
    let k, a, b = jobs.(i) in
    P.assemble_with_pins ~pins:[ ("a", a); ("b", b) ] st.compiled.(k)
  in
  let results = Array.make n None and sent = Array.make n 0.0 and failed = Array.make n false in
  let shed = ref 0 and submit_rtts = ref [] and lags = ref [] and backlogs = ref [] in
  let f = inflight (Shard.num_shards server.pool) in
  conn.request_bytes <- 0;
  conn.reply_bytes <- 0;
  let before = Shard.stats server.pool in
  let g0 = Gc.quick_stat () in
  open_window tr;
  let t0 = now () in
  let next = ref 0 in
  let send_due () =
    while !next < n && now () >= t0 +. schedule.(!next) do
      let i = !next in
      incr next;
      backlogs := outstanding f :: !backlogs;
      let s = now () in
      sent.(i) <- s;
      lags := (s -. (t0 +. schedule.(i))) :: !lags;
      let problem = (pinned i).Qac_qmasm.Assemble.problem in
      let reply = call conn (Protocol.Submit { Serve.id = Printf.sprintf "c%d" i; problem; timeout_ms = None }) in
      let e = now () in
      submit_rtts := (e -. s) :: !submit_rtts;
      ignore (span tr ~job:i "submit" s e);
      match reply with
      | Protocol.Submitted { ticket; shard } -> Queue.push (i, ticket) f.queues.(shard)
      | Protocol.Busy _ ->
        incr shed;
        failed.(i) <- true
      | _ -> failed.(i) <- true
    done
  in
  (* The client only sends and collects in the window; answers are checked
     after it, so checking never delays a send. *)
  while !next < n || outstanding f > 0 do
    send_due ();
    sweep conn f ~between:send_due ~on_done:(fun i r e -> results.(i) <- Some (r, e));
    let wake = now () +. 0.002 in
    let wake = if !next < n then min wake (t0 +. schedule.(!next)) else wake in
    let pause = wake -. now () in
    if pause > 0.0 then Unix.sleepf pause
  done;
  let g1 = Gc.quick_stat () and peak_rss = peak_rss_mb () in
  (* The pipeline's own verdict on each sample (the netlist run forward)
     must agree with integer arithmetic on the pins. *)
  let wrong = ref [] in
  let solved i (r : Serve.result) =
    match r.Serve.status, r.Serve.response with
    | Serve.Done, Some response ->
      let k, a, b = jobs.(i) in
      let w, name, _, op = st.structures.(k) in
      let s = now () in
      let sols, valid = verify_samples st.compiled.(k) ~program:(pinned i) response in
      List.iter
        (fun sol ->
           let port p = List.assoc p sol.P.ports in
           if port "y" <> op a b land ((1 lsl (w + 1)) - 1) || port "a" <> a || port "b" <> b then
             wrong := Printf.sprintf "%s%d(%d,%d)=%d" name w a b (port "y") :: !wrong)
        valid;
      note_answers tr ~seconds:(now () -. s) ~distinct:(List.length sols) ~valid:(List.length valid)
        ~valid_reads:(occurrences valid) ~reads:response.Sampler.num_reads;
      valid <> []
    | _ -> false
  in
  let jobs =
    List.init n (fun i ->
        let due = t0 +. schedule.(i) in
        match results.(i) with
        | Some ((r : Serve.result), e) ->
          { due; finished = Some e; solved = solved i r; failed = r.Serve.status <> Serve.Done }
        | None -> { due; finished = None; solved = false; failed = failed.(i) })
  in
  let lag_p99 = ms (R.percentile !lags 0.99) in
  let backlogs = Array.of_list (List.rev !backlogs) in
  let nb = Array.length backlogs in
  let backlog = if nb = 0 then 0 else backlogs.(nb - 1) in
  (* The backlog is still growing at the last send when it has climbed by
     more than a quarter of the run's arrivals since mid-window: the
     server is not keeping up with the offered rate. *)
  let growing = nb > 0 && backlog - backlogs.(nb / 2) > n / 4 in
  let completed =
    List.filter_map
      (fun i -> Option.map (fun (r, e) -> served_job i r ~sent:sent.(i) ~finished:e) results.(i))
      (List.init n Fun.id)
  in
  finish cfg tr ~workload:"circuits-open"
    { jobs;
      first_send = t0;
      vars = Array.to_list (Array.map (fun t -> float_of_int (num_vars t)) st.compiled);
      lags = !lags;
      backlog;
      gc = (g0, g1);
      peak_rss;
      served = Some (served_measured tr server ~before ~f ~shed:!shed ~submit_rtts:!submit_rtts ~completed);
      checks =
        [ check "answers_match_integer_ops" (!wrong = [])
            (String.concat "," (List.filteri (fun i _ -> i < 5) !wrong)) ];
      guards =
        [ check "generator_on_schedule" (lag_p99 <= 50.0) (Printf.sprintf "sched_lag_p99_ms=%.3f" lag_p99);
          check "backlog_not_growing" (not growing) (Printf.sprintf "backlog_at_last_send=%d" backlog) ];
      answers =
        List.filter_map
          (Option.map (fun (r, _) -> canonical r))
          (Array.to_list (Array.sub results 0 (min n digest_limit))) }

(* --- sat-batch ---------------------------------------------------------------- *)

let dimacs_of_clauses n clauses =
  let b = Buffer.create 1024 in
  Printf.bprintf b "p cnf %d %d\n" n (Array.length clauses);
  Array.iter (fun lits -> Array.iter (Printf.bprintf b "%d ") lits; Buffer.add_string b "0\n") clauses;
  Buffer.contents b

(* A gauge of [skeleton]: literal polarities follow a random hidden
   assignment, which satisfies every clause.  Gauges keep the compiled
   coupler structure, so every instance of a skeleton shares one
   embedding. *)
let gauged rng n skeleton =
  let gauge = Array.init n (fun _ -> Random.State.bool rng) in
  dimacs_of_clauses n
    (Array.map (fun vars -> Array.map (fun v -> if gauge.(v) then v + 1 else -(v + 1)) vars) skeleton)

type sat = {
  n : int;
  skeletons : int array array array;
  by_shard : int array array;  (** skeleton indices routed to each shard *)
  sat_server : server;
}

(* Four fixed clause skeletons, two routed to each shard, drawn from a
   fixed stream so every seed embeds the same structures. *)
let sat_skeletons ~n ~m =
  let rng = Random.State.make [| 421 |] in
  let skeleton () =
    Array.init m (fun _ ->
        let a = Random.State.int rng n in
        let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
        let rec pick () =
          let c = Random.State.int rng n in
          if c = a || c = b then pick () else c
        in
        [| a; b; pick () |])
  in
  let shard_of sk =
    let problem = (Sat.compile (Dimacs.parse (dimacs_of_clauses n (Array.map (Array.map succ) sk)))).Sat.problem in
    Shard.rendezvous ~digest:(Cache.structure_digest problem) ~num_shards:2
  in
  let by_shard = [| []; [] |] in
  let rec draw found =
    if found < 4 then begin
      let sk = skeleton () in
      let s = shard_of sk in
      if List.length by_shard.(s) < 2 then begin
        by_shard.(s) <- sk :: by_shard.(s);
        draw (found + 1)
      end
      else draw found
    end
  in
  draw 0;
  let skeletons = Array.of_list (List.rev by_shard.(0) @ List.rev by_shard.(1)) in
  (skeletons, [| [| 0; 1 |]; [| 2; 3 |] |])

let submit_sat c ~id dimacs = call c (Protocol.Submit_sat { id; dimacs; timeout_ms = None })

let sat_poll_interval = 0.005

(* Set-up creates the pool and server, sends one small formula (which pays
   the server's first SAT compile, including the OR3 gadget's LP) and then
   one instance of every skeleton, which embeds each into its shard's
   cache: the window measures the read-mostly hit path. *)
let sat_setup cfg tr =
  warm_pipeline tr;
  let n, m = if cfg.smoke then (8, 26) else (14, 49) in
  let sa =
    { Sa.default_params with
      Sa.num_reads = (if cfg.smoke then 12 else 64);
      num_sweeps = (if cfg.smoke then 100 else 400);
      seed = 42 }
  in
  let tiler_params =
    { Qac_embed.Tiler.default_params with
      Qac_embed.Tiler.slack = 6.0;
      embed_params = Some { Qac_embed.Cmr.default_params with Qac_embed.Cmr.tries = 4 } }
  in
  let pool =
    Shard.create ~num_shards:2 ~routing:Shard.Affinity ~num_threads:1 ~tiler_params
      ~solver:(served_solver tr sa) ~graph:(Qac_chimera.Pegasus.create (if cfg.smoke then 4 else 6)) ()
  in
  let server = start_server cfg pool in
  let skeletons, by_shard = sat_skeletons ~n ~m in
  let f = inflight 2 in
  let rng = Random.State.make [| 7 |] in
  List.iteri
    (fun k text ->
       match submit_sat server.conn ~id:(Printf.sprintf "prime%d" k) text with
       | Protocol.Submitted { ticket; shard } -> Queue.push (k, ticket) f.queues.(shard)
       | _ -> failwith "set-up formula refused")
    (demo_cnf :: Array.to_list (Array.map (gauged rng n) skeletons));
  await_all server.conn f ~poll_interval:sat_poll_interval ~on_done:(fun _ _ _ -> ());
  { n; skeletons; by_shard; sat_server = server }

(* Decode every read locally and recount its violated clauses one literal
   at a time; the recount must agree with [Dimacs.violations]. *)
let check_sat tr text (response : Sampler.response) =
  let s = now () in
  let formula = Dimacs.parse text in
  let p = now () in
  let compiled = Sat.compile formula in
  let c = now () in
  let disagree = ref 0 and satisfying = ref 0 and distinct_ok = ref 0 in
  List.iter
    (fun (x : Sampler.sample) ->
       let assignment = Sat.decode compiled x.Sampler.spins in
       let recount =
         Array.fold_left
           (fun acc (cl : Dimacs.clause) ->
              if Array.exists (fun l -> assignment.(abs l - 1) = (l > 0)) cl.Dimacs.lits then acc else acc + 1)
           0 formula.Dimacs.clauses
       in
       let hard, _ = Dimacs.violations formula assignment in
       if recount <> hard then incr disagree;
       if hard = 0 then begin
         incr distinct_ok;
         satisfying := !satisfying + x.Sampler.num_occurrences
       end)
    response.Sampler.samples;
  let e = now () in
  note tr "sat.parse_ms" (ms (p -. s));
  note tr "sat.compile_ms" (ms (c -. p));
  note tr "sat.check_ms" (ms (e -. c));
  note tr "sat.ancillas" (float_of_int compiled.Sat.num_ancillas);
  note_answers tr ~seconds:(e -. c) ~distinct:(List.length response.Sampler.samples) ~valid:!distinct_ok
    ~valid_reads:!satisfying ~reads:response.Sampler.num_reads;
  (!disagree, !satisfying > 0, compiled.Sat.num_formula_vars + compiled.Sat.num_ancillas)

(* A closed loop that keeps [depth] jobs in flight on each shard: every
   completion on a shard releases the next instance of one of that
   shard's skeletons.  Unlike circuits-open, answers are checked as they
   arrive: a check takes about a millisecond against seconds of latency,
   and holding every response until the window ends would double the
   process's peak memory. *)
let sat_batch cfg tr st () =
  let rng = Random.State.make [| cfg.seed; 5 |] in
  let depth = if cfg.smoke then 4 else 16 in
  let server = st.sat_server in
  let conn = server.conn in
  let f = inflight 2 in
  let jobs = ref [] and answers = ref [] and vars = ref [] in
  let texts = Hashtbl.create 64 and sent = Hashtbl.create 64 in
  let refused = ref 0 and shed = ref 0 and disagree = ref 0 and submit_rtts = ref [] and lags = ref [] in
  let completed = ref [] in
  conn.request_bytes <- 0;
  conn.reply_bytes <- 0;
  let before = Shard.stats server.pool in
  let g0 = Gc.quick_stat () in
  open_window tr;
  let t0 = now () in
  let t_end = t0 +. cfg.seconds in
  let count = ref 0 in
  let may_issue () = if cfg.smoke then !count < 2 * depth else now () < t_end in
  let issue shard ~due =
    let i = !count in
    incr count;
    let sk = st.skeletons.(st.by_shard.(shard).(Random.State.int rng 2)) in
    let text = gauged rng st.n sk in
    Hashtbl.replace texts i text;
    let s = now () in
    lags := (s -. due) :: !lags;
    let reply = submit_sat conn ~id:(Printf.sprintf "s%d" i) text in
    let e = now () in
    Hashtbl.replace sent i s;
    submit_rtts := (e -. s) :: !submit_rtts;
    ignore (span tr ~job:i "submit" s e);
    match reply with
    | Protocol.Submitted { ticket; shard } -> Queue.push (i, ticket) f.queues.(shard)
    | Protocol.Busy _ ->
      incr shed;
      jobs := { due = s; finished = None; solved = false; failed = true } :: !jobs
    | _ ->
      incr refused;
      jobs := { due = s; finished = None; solved = false; failed = true } :: !jobs
  in
  let on_done i (r : Serve.result) e =
    let s = Hashtbl.find sent i in
    let text = Hashtbl.find texts i in
    Hashtbl.remove texts i;
    completed := served_job i r ~sent:s ~finished:e :: !completed;
    if i < digest_limit then answers := (i, canonical r) :: !answers;
    let solved =
      match r.Serve.status, r.Serve.response with
      | Serve.Done, Some response ->
        let d, ok, v = check_sat tr text response in
        disagree := !disagree + d;
        vars := float_of_int v :: !vars;
        ok
      | _ -> false
    in
    jobs := { due = s; finished = Some e; solved; failed = r.Serve.status <> Serve.Done } :: !jobs
  in
  let refill ~due =
    Array.iteri
      (fun shard q ->
         while Queue.length q < depth && may_issue () do
           issue shard ~due
         done)
      f.queues
  in
  refill ~due:t0;
  while outstanding f > 0 do
    let released = ref 0.0 in
    sweep conn f ~between:ignore ~on_done:(fun i r e ->
        on_done i r e;
        released := e);
    refill ~due:!released;
    if outstanding f > 0 then Unix.sleepf sat_poll_interval
  done;
  let g1 = Gc.quick_stat () and peak_rss = peak_rss_mb () in
  finish cfg tr ~workload:"sat-batch"
    { jobs = List.rev !jobs;
      first_send = t0;
      vars = List.sort_uniq compare !vars;
      lags = !lags;
      backlog = 0;
      gc = (g0, g1);
      peak_rss;
      served =
        Some (served_measured tr server ~before ~f ~shed:!shed ~submit_rtts:!submit_rtts ~completed:!completed);
      checks =
        [ check "violation_recount_agrees" (!disagree = 0) (Printf.sprintf "disagreements=%d" !disagree);
          check "every_submission_admitted" (!refused = 0) (Printf.sprintf "refused=%d" !refused) ];
      guards = [];
      answers = List.map snd (List.sort compare !answers) }

(* --- Dispatch -------------------------------------------------------------------- *)

(* A workload is a set-up, which [setup_s] times, and a measured window
   that consumes what the set-up built. *)
type prepared = {
  measure : unit -> R.t;
  teardown : unit -> unit;
}

let served_workload = function "circuits-open" | "sat-batch" -> true | _ -> false

let setup cfg tr = function
  | "compile-corpus" ->
    corpus_setup tr;
    { measure = compile_corpus cfg tr; teardown = ignore }
  | "factor-logical" ->
    let cache = factor_setup cfg tr in
    { measure = factor_logical cfg tr cache; teardown = ignore }
  | "circuits-open" ->
    let st = circuits_setup cfg tr in
    { measure = circuits_open cfg tr st; teardown = (fun () -> stop_server st.server) }
  | "sat-batch" ->
    let st = sat_setup cfg tr in
    { measure = sat_batch cfg tr st; teardown = (fun () -> stop_server st.sat_server) }
  | w -> invalid_arg ("unknown workload " ^ w)
