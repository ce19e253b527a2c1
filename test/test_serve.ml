(** The batch solver service: ordering, batching, deadlines, retries,
    backpressure, and reproducibility across thread counts. *)

open Qac_ising
module Chimera = Qac_chimera.Chimera
module Family = Qac_chimera.Family
module Tiler = Qac_embed.Tiler
module Serve = Qac_serve.Serve
module Sampler = Qac_anneal.Sampler
module Sa = Qac_anneal.Sa
module Trace = Qac_diag.Trace

let tiler_params =
  { Tiler.default_params with
    Tiler.embed_params = Some { Qac_embed.Cmr.default_params with tries = 4 } }

let solver ~deadline p =
  Sa.sample
    ~params:{ Sa.default_params with Sa.num_reads = 6; num_sweeps = 40; seed = 5 }
    ?deadline p

let chain_problem n =
  Problem.create ~num_vars:n
    ~h:(Array.init n (fun i -> if i mod 2 = 0 then 0.5 else -0.25))
    ~j:(List.init (n - 1) (fun i -> ((i, i + 1), if i mod 3 = 0 then -1.0 else 0.5)))
    ()

(* [bias] varies the fields without touching the interaction structure:
   same embedding footprint, but distinct problem content — such jobs are
   not coalescible duplicates of each other. *)
let dense_problem ?(bias = 0.1) n =
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      j := ((i, k), if (i + k) mod 2 = 0 then 0.5 else -0.5) :: !j
    done
  done;
  Problem.create ~num_vars:n ~h:(Array.make n bias) ~j:!j ()

let job ?timeout_ms id problem = { Serve.id; problem; timeout_ms }

let check_sample (a : Sampler.sample) (b : Sampler.sample) =
  Alcotest.(check (array int)) "spins" a.Sampler.spins b.Sampler.spins;
  Alcotest.(check (float 1e-9)) "energy" a.Sampler.energy b.Sampler.energy;
  Alcotest.(check int) "occurrences" a.Sampler.num_occurrences b.Sampler.num_occurrences

let check_response name (a : Sampler.response) (b : Sampler.response) =
  Alcotest.(check int) (name ^ ": num_reads") a.Sampler.num_reads b.Sampler.num_reads;
  Alcotest.(check int)
    (name ^ ": distinct")
    (List.length a.Sampler.samples)
    (List.length b.Sampler.samples);
  List.iter2 check_sample a.Sampler.samples b.Sampler.samples

let response_exn (r : Serve.result) =
  match r.Serve.response with
  | Some resp -> resp
  | None -> Alcotest.fail (r.Serve.id ^ ": no response")

(* The blocker a held test keeps in flight: distinct from every job queued
   behind it, so it neither coalesces with them nor shares their answers. *)
let blocker = job "blocker" (chain_problem 6)

(* A one-thread service whose solves wait at a {!Gate}, returned once its
   blocker is in flight: jobs submitted next stay queued, whatever the
   flush rule, until [Gate.release].  The wide batch limit and window then
   send them out as one batch.  Counts of solved jobs include the
   blocker. *)
let held_service ?queue_capacity ?(graph = Chimera.create 6) () =
  let gate = Gate.create () in
  let t =
    Serve.create ?queue_capacity ~batch_jobs:100 ~batch_window_s:60.0 ~tiler_params
      ~solver:(Gate.solver gate solver) ~graph ()
  in
  Serve.submit t blocker;
  Gate.await gate;
  (t, gate)

let serve_all ?num_threads ?batch_jobs ?queue_capacity ?trace graph jobs =
  let t =
    Serve.create ?num_threads ?batch_jobs ?queue_capacity ?trace
      ~tiler_params ~solver ~graph ()
  in
  List.iter (Serve.submit t) jobs;
  let results = Serve.drain t in
  (results, Serve.stats t)

let basic_tests =
  [ Alcotest.test_case "drain returns every job in submission order" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let jobs =
           List.init 5 (fun i -> job (Printf.sprintf "j%d" i) (chain_problem (3 + i)))
         in
         let results, stats = serve_all graph jobs in
         Alcotest.(check int) "result count" 5 (List.length results);
         List.iteri
           (fun i (r : Serve.result) ->
              Alcotest.(check string) "order" (Printf.sprintf "j%d" i) r.Serve.id;
              (match r.Serve.status with
               | Serve.Done -> ()
               | _ -> Alcotest.fail (r.Serve.id ^ ": not done"));
              Alcotest.(check bool) "has response" true (r.Serve.response <> None);
              Alcotest.(check bool) "batch assigned" true (r.Serve.batch >= 0);
              Alcotest.(check bool) "wait non-negative" true (r.Serve.wait_seconds >= 0.0))
           results;
         Alcotest.(check int) "all placed" 5 stats.Serve.placed;
         Alcotest.(check bool) "throughput measured" true
           (stats.Serve.jobs_per_second > 0.0);
         Alcotest.(check bool) "occupancy measured" true
           (stats.Serve.mean_occupancy > 0.0));
    Alcotest.test_case "served responses equal standalone tiled solves" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let problems = [ chain_problem 5; dense_problem 4; chain_problem 3 ] in
         let results, _ =
           serve_all graph (List.mapi (fun i p -> job (string_of_int i) p) problems)
         in
         List.iteri
           (fun i p ->
              let alone =
                Tiler.tile ~params:tiler_params (Family.of_topology graph) [| p |]
              in
              match Tiler.solve ~solver alone with
              | [ (0, expected) ] ->
                check_response (string_of_int i) expected
                  (response_exn (List.nth results i))
              | _ -> Alcotest.fail "standalone solve failed")
           problems);
    Alcotest.test_case "responses are identical at 1 and 4 threads" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let jobs () =
           List.init 6 (fun i -> job (string_of_int i) (chain_problem (3 + (i mod 3))))
         in
         let r1, _ = serve_all ~num_threads:1 graph (jobs ()) in
         let r4, _ = serve_all ~num_threads:4 graph (jobs ()) in
         List.iter2
           (fun (a : Serve.result) (b : Serve.result) ->
              check_response a.Serve.id (response_exn a) (response_exn b))
           r1 r4);
    Alcotest.test_case "small batch limit splits the load" `Quick (fun () ->
        let graph = Chimera.create 6 in
        (* Distinct lengths: identical jobs would coalesce onto one leader
           and leave nothing to split into batches. *)
        let jobs =
          List.init 6 (fun i -> job (string_of_int i) (chain_problem (3 + i)))
        in
        let results, stats = serve_all ~batch_jobs:2 graph jobs in
        Alcotest.(check int) "all served" 6 (List.length results);
        Alcotest.(check bool) "several batches" true (stats.Serve.batches >= 3));
    Alcotest.test_case "backpressure: tiny queue still serves everything" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let jobs = List.init 8 (fun i -> job (string_of_int i) (chain_problem 3)) in
         let results, _ = serve_all ~queue_capacity:1 graph jobs in
         Alcotest.(check int) "all served" 8 (List.length results));
    Alcotest.test_case "submit after drain raises" `Quick (fun () ->
        let graph = Chimera.create 4 in
        let t = Serve.create ~tiler_params ~solver ~graph () in
        ignore (Serve.drain t);
        Alcotest.check_raises "submit after drain"
          (Invalid_argument "Serve.submit: service is draining") (fun () ->
            Serve.submit t (job "late" (chain_problem 3))));
    Alcotest.test_case "drain is idempotent" `Quick (fun () ->
        let graph = Chimera.create 4 in
        let t = Serve.create ~tiler_params ~solver ~graph () in
        Serve.submit t (job "a" (chain_problem 3));
        let first = Serve.drain t in
        let second = Serve.drain t in
        Alcotest.(check int) "same count" (List.length first) (List.length second)) ]

let deadline_tests =
  [ Alcotest.test_case "queue-expired job fails fast without solving" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let results, stats =
           serve_all graph
             [ job ~timeout_ms:0.0 "doomed" (chain_problem 4);
               job "fine" (chain_problem 4) ]
         in
         (match (List.nth results 0).Serve.status with
          | Serve.Timed_out -> ()
          | _ -> Alcotest.fail "expected queue timeout");
         Alcotest.(check bool) "no response for expired job" true
           ((List.nth results 0).Serve.response = None);
         (match (List.nth results 1).Serve.status with
          | Serve.Done -> ()
          | _ -> Alcotest.fail "unexpired job should finish");
         Alcotest.(check bool) "timeout counted" true (stats.Serve.timeouts >= 1));
    Alcotest.test_case "solver deadline yields best-effort partial result" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         (* A solver that always overruns its deadline but returns partial
            reads, as the real samplers do. *)
         let slow ~deadline p =
           (match deadline with
            | Some d ->
              let remaining = d -. Unix.gettimeofday () in
              if remaining > 0.0 then Unix.sleepf (min 0.2 (remaining +. 0.01))
            | None -> ());
           solver ~deadline p
         in
         let t =
           Serve.create ~tiler_params ~solver:slow ~graph ()
         in
         Serve.submit t (job ~timeout_ms:120.0 "slow" (chain_problem 4));
         let results = Serve.drain t in
         match List.nth results 0 with
         | { Serve.status = Serve.Timed_out; response = Some r; _ } ->
           Alcotest.(check bool) "flagged" true r.Sampler.timed_out;
           Alcotest.(check bool) "partial reads kept" true (r.Sampler.num_reads >= 1)
         | _ -> Alcotest.fail "expected a timed-out partial result") ]

let failure_tests =
  [ Alcotest.test_case "unembeddable job fails after fresh-seed retries" `Quick
      (fun () ->
         let graph = Chimera.create 2 in
         let huge = chain_problem 40 in
         let results, stats =
           serve_all graph [ job "huge" huge; job "ok" (chain_problem 3) ]
         in
         (match (List.nth results 0).Serve.status with
          | Serve.Failed _ -> ()
          | _ -> Alcotest.fail "oversized job should fail");
         (match (List.nth results 1).Serve.status with
          | Serve.Done -> ()
          | _ -> Alcotest.fail "small job should finish");
         Alcotest.(check bool) "retried with fresh seeds" true
           (stats.Serve.retries >= 1);
         Alcotest.(check int) "one failure" 1 stats.Serve.failures);
    Alcotest.test_case "deferred jobs requeue and complete" `Quick (fun () ->
        let graph = Chimera.create 2 in
        (* Each 8-var dense job takes the whole C2, so they must serialize
           across batches via deferral.  Distinct biases keep the three
           jobs from coalescing into one solve. *)
        let big i = dense_problem ~bias:(0.1 +. (0.01 *. float_of_int i)) 8 in
        (* Held behind a blocker, the three leave as one batch, so two of
           them defer there. *)
        let t, gate = held_service ~graph () in
        List.iter (Serve.submit t) (List.init 3 (fun i -> job (string_of_int i) (big i)));
        Gate.release gate;
        let results = Serve.drain t in
        let stats = Serve.stats t in
        List.iter
          (fun (r : Serve.result) ->
             match r.Serve.status with
             | Serve.Done -> ()
             | _ -> Alcotest.fail (r.Serve.id ^ " should finish"))
          results;
        Alcotest.(check bool) "deferrals happened" true (stats.Serve.deferrals >= 1);
        Alcotest.(check int) "all placed eventually" (3 + 1) stats.Serve.placed) ]

let trace_tests =
  [ Alcotest.test_case "batch spans and service summary reach the trace" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let trace = Trace.create () in
         let jobs = List.init 3 (fun i -> job (string_of_int i) (chain_problem 4)) in
         let _, _ = serve_all ~trace graph jobs in
         (match Trace.find_span trace "batch" with
          | Some span ->
            Alcotest.(check bool) "jobs counter" true
              (List.mem_assoc "jobs" span.Trace.counters);
            Alcotest.(check bool) "occupancy counter" true
              (List.mem_assoc "occupancy-pct" span.Trace.counters);
            Alcotest.(check bool) "queue depth counter" true
              (List.mem_assoc "queue-depth" span.Trace.counters)
          | None -> Alcotest.fail "no batch span");
         Alcotest.(check (option (float 0.0))) "summary jobs" (Some 3.0)
           (Trace.find_summary trace "serve-jobs-done");
         (match Trace.find_summary trace "serve-jobs-per-second" with
          | Some v -> Alcotest.(check bool) "throughput summary positive" true (v > 0.0)
          | None -> Alcotest.fail "no throughput summary")) ]

let pegasus_tests =
  [ Alcotest.test_case "multi-job batch drains Done on Pegasus" `Quick (fun () ->
        let graph = Qac_chimera.Pegasus.create 4 in
        let problems =
          [ chain_problem 5; dense_problem 4; chain_problem 3; dense_problem 3 ]
        in
        let results, stats =
          serve_all ~batch_jobs:(List.length problems) graph
            (List.mapi (fun i p -> job (string_of_int i) p) problems)
        in
        Alcotest.(check int) "result count" (List.length problems)
          (List.length results);
        List.iter
          (fun (r : Serve.result) ->
             match r.Serve.status with
             | Serve.Done -> ()
             | _ -> Alcotest.fail (r.Serve.id ^ ": not done on Pegasus"))
          results;
        Alcotest.(check int) "no failures" 0 stats.Serve.failures;
        (* And served responses stay equal to standalone tiled solves —
           the reproducibility contract is family-independent. *)
        List.iteri
          (fun i p ->
             let alone =
               Tiler.tile ~params:tiler_params (Family.of_topology graph) [| p |]
             in
             match Tiler.solve ~solver alone with
             | [ (0, expected) ] ->
               check_response (string_of_int i) expected
                 (response_exn (List.nth results i))
             | _ -> Alcotest.fail "standalone solve failed")
          problems);
  ]

let ticket_tests =
  [ Alcotest.test_case "tickets: peek is None until served, result after" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let t = Serve.create ~tiler_params ~solver ~graph () in
         let ticket = Serve.submit_ticket t (job "a" (chain_problem 4)) in
         ignore (Serve.drain t);
         match Serve.peek t ticket with
         | Some { Serve.status = Serve.Done; id = "a"; _ } -> ()
         | Some _ -> Alcotest.fail "wrong result"
         | None -> Alcotest.fail "peek after drain should see the result");
    Alcotest.test_case "cancel removes a queued job, not a served one" `Quick
      (fun () ->
         (* Both jobs stay queued behind the held blocker. *)
         let t, gate = held_service () in
         let keep = Serve.submit_ticket t (job "keep" (chain_problem 4)) in
         let kill = Serve.submit_ticket t (job "kill" (chain_problem 4)) in
         Alcotest.(check bool) "queued job cancels" true (Serve.cancel t kill);
         Alcotest.(check bool) "unknown ticket doesn't" false (Serve.cancel t 99);
         Gate.release gate;
         ignore (Serve.drain t);
         Alcotest.(check bool) "served job doesn't cancel" false
           (Serve.cancel t keep);
         (match Serve.peek t kill with
          | Some { Serve.status = Serve.Canceled; response = None; batch = -1; _ } -> ()
          | _ -> Alcotest.fail "canceled job should report Canceled, no batch");
         let stats = Serve.stats t in
         Alcotest.(check int) "canceled counted" 1 stats.Serve.canceled;
         Alcotest.(check int) "canceled jobs are not solved" (1 + 1) stats.Serve.placed);
    Alcotest.test_case "try_submit rejects only when the queue is full" `Quick
      (fun () ->
         let t, gate = held_service ~queue_capacity:2 () in
         Alcotest.(check bool) "first fits" true
           (Serve.try_submit t (job "a" (chain_problem 3)) <> None);
         Alcotest.(check bool) "second fits" true
           (Serve.try_submit t (job "b" (chain_problem 4)) <> None);
         Alcotest.(check (option int)) "third sheds" None
           (Serve.try_submit t (job "c" (chain_problem 5)));
         Alcotest.(check int) "queue depth visible" 2 (Serve.stats t).Serve.queue_depth;
         Gate.release gate;
         ignore (Serve.drain t));
    Alcotest.test_case "latency histogram counts every finished job" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let t = Serve.create ~tiler_params ~solver ~graph () in
         List.iter
           (fun i -> Serve.submit t (job (string_of_int i) (chain_problem (3 + i))))
           [ 0; 1; 2 ];
         ignore (Serve.drain t);
         let lat = Serve.latency t in
         Alcotest.(check int) "one observation per job" 3 (Qac_diag.Hist.count lat);
         Alcotest.(check bool) "positive p50" true (Qac_diag.Hist.p50 lat > 0.0)) ]

let coalesce_tests =
  [ Alcotest.test_case "identical jobs coalesce onto one solve" `Quick (fun () ->
        (* Everything stays queued behind the held blocker, so all three
           duplicates attach before any solve. *)
        let t, gate = held_service () in
        let p = chain_problem 4 in
        List.iter (Serve.submit t)
          [ job "a0" p; job "a1" p; job "a2" p; job "b" (chain_problem 5) ];
        Gate.release gate;
        let results =
          List.filter (fun (r : Serve.result) -> r.Serve.id <> "blocker") (Serve.drain t)
        in
        let stats = Serve.stats t in
        Alcotest.(check int) "four results" 4 (List.length results);
        Alcotest.(check int) "one solve per unique problem" (2 + 1) stats.Serve.placed;
        Alcotest.(check int) "followers counted" 2 stats.Serve.coalesced;
        List.iter
          (fun (r : Serve.result) ->
             match r.Serve.status with
             | Serve.Done -> ()
             | _ -> Alcotest.fail (r.Serve.id ^ ": not done"))
          results;
        let by_id id =
          List.find (fun (r : Serve.result) -> r.Serve.id = id) results
        in
        let leader = response_exn (by_id "a0") in
        check_response "a1" leader (response_exn (by_id "a1"));
        check_response "a2" leader (response_exn (by_id "a2")));
    Alcotest.test_case "canceling a follower leaves the leader solving" `Quick
      (fun () ->
         let t, gate = held_service () in
         let p = chain_problem 4 in
         let lead = Serve.submit_ticket t (job "lead" p) in
         let dup = Serve.submit_ticket t (job "dup" p) in
         Alcotest.(check bool) "follower cancels" true (Serve.cancel t dup);
         Gate.release gate;
         ignore (Serve.drain t);
         (match Serve.peek t lead with
          | Some { Serve.status = Serve.Done; response = Some _; _ } -> ()
          | _ -> Alcotest.fail "leader should still finish");
         (match Serve.peek t dup with
          | Some { Serve.status = Serve.Canceled; response = None; _ } -> ()
          | _ -> Alcotest.fail "follower should report Canceled");
         let stats = Serve.stats t in
         Alcotest.(check int) "one cancel" 1 stats.Serve.canceled;
         Alcotest.(check int) "one solve" (1 + 1) stats.Serve.placed);
    Alcotest.test_case "canceling the leader keeps followers served" `Quick
      (fun () ->
         let t, gate = held_service () in
         let p = chain_problem 4 in
         let lead = Serve.submit_ticket t (job "lead" p) in
         let dup = Serve.submit_ticket t (job "dup" p) in
         Alcotest.(check bool) "leader delivery cancels" true (Serve.cancel t lead);
         Gate.release gate;
         ignore (Serve.drain t);
         (match Serve.peek t lead with
          | Some { Serve.status = Serve.Canceled; response = None; _ } -> ()
          | _ -> Alcotest.fail "canceled leader delivery should stay Canceled");
         (match Serve.peek t dup with
          | Some { Serve.status = Serve.Done; response = Some _; _ } -> ()
          | _ -> Alcotest.fail "follower should be served anyway");
         Alcotest.(check int) "solved once" (1 + 1) (Serve.stats t).Serve.placed);
    Alcotest.test_case "canceling every subscriber releases the queue slot"
      `Quick (fun () ->
        let t, gate = held_service ~queue_capacity:1 () in
        let p = chain_problem 4 in
        let a = Serve.submit_ticket t (job "a" p) in
        let b = Serve.submit_ticket t (job "b" p) in
        Alcotest.(check bool) "leader cancels" true (Serve.cancel t a);
        Alcotest.(check bool) "last follower cancels" true (Serve.cancel t b);
        Alcotest.(check int) "slot released" 0 (Serve.stats t).Serve.queue_depth;
        Alcotest.(check bool) "a fresh job fits" true
          (Serve.try_submit t (job "c" (chain_problem 5)) <> None);
        Gate.release gate;
        ignore (Serve.drain t));
    Alcotest.test_case "try_submit admits a duplicate at capacity" `Quick
      (fun () ->
         let t, gate = held_service ~queue_capacity:1 () in
         let p = chain_problem 4 in
         Alcotest.(check bool) "leader fits" true
           (Serve.try_submit t (job "a" p) <> None);
         (* The queue is now full, but a duplicate consumes no slot. *)
         Alcotest.(check bool) "duplicate attaches" true
           (Serve.try_submit t (job "a2" p) <> None);
         Alcotest.(check (option int)) "distinct job sheds" None
           (Serve.try_submit t (job "b" (chain_problem 5)));
         Gate.release gate;
         let results =
           List.filter (fun (r : Serve.result) -> r.Serve.id <> "blocker") (Serve.drain t)
         in
         Alcotest.(check int) "both answered" 2 (List.length results);
         let by_id id =
           List.find (fun (r : Serve.result) -> r.Serve.id = id) results
         in
         check_response "a2" (response_exn (by_id "a"))
           (response_exn (by_id "a2")));
    Alcotest.test_case "a work whose last delivery cancels in flight is dropped"
      `Quick (fun () ->
        (* One thread solves in submission order: the first solve is the
           blocker's, the second the coalesced work's.  Each waits at its
           own gate; later solves run straight through. *)
        let blocker_gate = Gate.create () and work_gate = Gate.create () in
        let solves = Atomic.make 0 in
        let gated ~deadline p =
          match Atomic.fetch_and_add solves 1 with
          | 0 -> Gate.solver blocker_gate solver ~deadline p
          | 1 -> Gate.solver work_gate solver ~deadline p
          | _ -> solver ~deadline p
        in
        let t =
          Serve.create ~batch_jobs:100 ~batch_window_s:60.0 ~tiler_params
            ~solver:gated ~graph:(Chimera.create 6) ()
        in
        Serve.submit t blocker;
        Gate.await blocker_gate;
        let p = chain_problem 4 in
        let lead = Serve.submit_ticket t (job "lead" p) in
        let dup = Serve.submit_ticket t (job "dup" p) in
        Alcotest.(check bool) "queued leader delivery cancels" true (Serve.cancel t lead);
        Gate.release blocker_gate;
        Gate.await work_gate;
        Alcotest.(check bool) "in-flight last follower cancels" true (Serve.cancel t dup);
        let again = Serve.submit_ticket t (job "again" p) in
        Gate.release work_gate;
        ignore (Serve.drain t);
        List.iter
          (fun (name, ticket) ->
             match Serve.peek t ticket with
             | Some { Serve.status = Serve.Canceled; response = None; _ } -> ()
             | _ -> Alcotest.fail (name ^ ": the late outcome should be dropped"))
          [ ("lead", lead); ("dup", dup) ];
        (match Serve.peek t again with
         | Some { Serve.status = Serve.Done; id = "again"; response = Some _; _ } -> ()
         | _ -> Alcotest.fail "the later duplicate should be solved");
        let stats = Serve.stats t in
        Alcotest.(check int) "both deliveries canceled" 2 stats.Serve.canceled;
        Alcotest.(check int) "only dup attached" 1 stats.Serve.coalesced;
        Alcotest.(check int) "blocker, dropped work and fresh work solved" 3
          stats.Serve.placed) ]

let unsupported_topology_tests =
  [ Alcotest.test_case "create refuses a graph that is neither Chimera nor Pegasus"
      `Quick (fun () ->
          let alien =
            Qac_chimera.Topology.create ~name:"alien" ~params:[] ~num_qubits:4
              ~edges:[ (0, 1); (1, 2); (2, 3); (0, 3) ] ()
          in
          match Serve.create ~tiler_params ~solver ~graph:alien () with
          | exception Invalid_argument _ -> ()
          | t ->
            ignore (Serve.drain t);
            Alcotest.fail "create accepted an unsupported graph") ]

let retained_tests =
  [ Alcotest.test_case "peek and drain rebuild the response Tiler.solve returns"
      `Quick (fun () ->
          (* Results are kept packed until drain: a SAT job, a compiled
             circuit and a zero-variable job must come back unchanged. *)
          let sat =
            (Qac_sat.Compile.compile
               (Qac_sat.Dimacs.parse "p cnf 4 3\n1 2 -3 0\n-2 3 4 0\n-1 -4 0\n"))
              .Qac_sat.Compile.problem
          in
          let circuit =
            let module Pipeline = Qac_core.Pipeline in
            let compiled =
              Pipeline.compile
                "module and2 (a, b, y); input a; input b; output y;\n\
                 assign y = a & b; endmodule"
            in
            (Pipeline.assemble_with_pins ~pins:[ ("y", 1) ] compiled)
              .Qac_qmasm.Assemble.problem
          in
          let problems =
            [ ("sat", sat); ("circuit", circuit); ("empty", Problem.empty) ]
          in
          let graph = Chimera.create 6 in
          let t = Serve.create ~batch_jobs:3 ~tiler_params ~solver ~graph () in
          let tickets =
            List.map (fun (id, p) -> Serve.submit_ticket t (job id p)) problems
          in
          let drained = Serve.drain t in
          List.iteri
            (fun i (id, p) ->
               let expected =
                 match
                   Tiler.solve ~solver
                     (Tiler.tile ~params:tiler_params (Family.of_topology graph) [| p |])
                 with
                 | [ (0, r) ] -> r
                 | _ -> Alcotest.fail (id ^ ": standalone solve failed")
               in
               let peeked =
                 match Serve.peek t (List.nth tickets i) with
                 | Some r -> response_exn r
                 | None -> Alcotest.fail (id ^ ": peek after drain")
               in
               let from_drain = response_exn (List.nth drained i) in
               check_response (id ^ " via peek") expected peeked;
               check_response (id ^ " via drain") expected from_drain;
               Alcotest.(check bool) (id ^ ": peek = drain") true (peeked = from_drain))
            problems) ]

(* Poll [ticket] until its result lands; fail after [within] seconds. *)
let await_result ?(within = 10.0) t ticket =
  let give_up = Unix.gettimeofday () +. within in
  let rec poll () =
    match Serve.peek t ticket with
    | Some r -> r
    | None ->
      if Unix.gettimeofday () > give_up then
        Alcotest.failf "no result within %.1f s" within;
      Unix.sleepf 0.002;
      poll ()
  in
  poll ()

let check_flush_sum (s : Serve.stats) =
  Alcotest.(check int) "flush causes sum to batches" s.Serve.batches
    (s.Serve.full_flushes + s.Serve.idle_flushes + s.Serve.window_flushes
     + s.Serve.drain_flushes)

(* Planted 3-SAT on one fixed clause skeleton: job [i] flips literal
   polarities to satisfy its own hidden assignment.  Gauges keep the
   compiled coupler structure, so every job shares one embedding. *)
let planted_sat =
  let n = 8 and m = 26 in
  let rng = Random.State.make [| 17 |] in
  let skeleton =
    Array.init m (fun _ ->
        let a = Random.State.int rng n in
        let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
        let rec pick () =
          let c = Random.State.int rng n in
          if c = a || c = b then pick () else c
        in
        [| a; b; pick () |])
  in
  fun i ->
    let gauge = Random.State.make [| i |] in
    let truth = Array.init n (fun _ -> Random.State.bool gauge) in
    let b = Buffer.create 512 in
    Printf.bprintf b "p cnf %d %d\n" n m;
    Array.iter
      (fun vars ->
         Array.iter (fun v -> Printf.bprintf b "%d " (if truth.(v) then v + 1 else -(v + 1))) vars;
         Buffer.add_string b "0\n")
      skeleton;
    (Qac_sat.Compile.compile (Qac_sat.Dimacs.parse (Buffer.contents b))).Qac_sat.Compile.problem

let flush_tests =
  [ Alcotest.test_case "one thread: a lone job on an idle service leaves at once"
      `Quick (fun () ->
          let graph = Chimera.create 6 in
          let t =
            Serve.create ~batch_jobs:100 ~batch_window_s:60.0 ~tiler_params ~solver
              ~graph ()
          in
          let ticket = Serve.submit_ticket t (job "lone" (chain_problem 4)) in
          let r = await_result ~within:2.0 t ticket in
          Alcotest.(check bool) "done" true (r.Serve.status = Serve.Done);
          Alcotest.(check bool)
            (Printf.sprintf "waited %.3f s, not the window" r.Serve.wait_seconds)
            true (r.Serve.wait_seconds < 1.0);
          ignore (Serve.drain t);
          let s = Serve.stats t in
          Alcotest.(check int) "released by the idle thread" 1 s.Serve.idle_flushes;
          check_flush_sum s);
    Alcotest.test_case "two threads: a lone job waits for the window, a pair does not"
      `Quick (fun () ->
          let graph = Chimera.create 6 in
          let t =
            Serve.create ~num_threads:2 ~batch_window_s:0.3 ~tiler_params ~solver ~graph ()
          in
          let lone = await_result t (Serve.submit_ticket t (job "lone" (chain_problem 4))) in
          Alcotest.(check bool)
            (Printf.sprintf "lone job waited %.3f s" lone.Serve.wait_seconds)
            true (lone.Serve.wait_seconds >= 0.25);
          let first = Serve.submit_ticket t (job "first" (chain_problem 3)) in
          let second = Serve.submit_ticket t (job "second" (chain_problem 5)) in
          let r1 = await_result t first and r2 = await_result t second in
          Alcotest.(check bool)
            (Printf.sprintf "first job waited %.3f s" r1.Serve.wait_seconds)
            true (r1.Serve.wait_seconds < 0.25);
          Alcotest.(check int) "the pair leaves together" r1.Serve.batch r2.Serve.batch;
          ignore (Serve.drain t);
          let s = Serve.stats t in
          Alcotest.(check int) "one window flush" 1 s.Serve.window_flushes;
          Alcotest.(check int) "one idle flush" 1 s.Serve.idle_flushes;
          check_flush_sum s);
    Alcotest.test_case "jobs queued behind a held batch leave as one batch" `Quick
      (fun () ->
         let t, gate = held_service () in
         let tickets =
           List.map
             (fun n -> Serve.submit_ticket t (job (string_of_int n) (chain_problem n)))
             [ 3; 4; 5 ]
         in
         Gate.release gate;
         ignore (Serve.drain t);
         let batches =
           List.map
             (fun k ->
                match Serve.peek t k with
                | Some { Serve.status = Serve.Done; batch; _ } -> batch
                | _ -> Alcotest.fail "queued job not done")
             tickets
         in
         Alcotest.(check (list int)) "one batch after the blocker's" [ 1; 1; 1 ] batches;
         let s = Serve.stats t in
         Alcotest.(check int) "two batches" 2 s.Serve.batches;
         check_flush_sum s);
    Alcotest.test_case "one thread: a submit_all list leaves as one batch" `Quick
      (fun () ->
         (* Per-job submits race the scheduler: it may take the first job
            alone before the next is queued. *)
         let graph = Chimera.create 6 in
         let t = Serve.create ~batch_window_s:60.0 ~tiler_params ~solver ~graph () in
         let tickets =
           Serve.submit_all t
             (List.map (fun n -> job (string_of_int n) (chain_problem n)) [ 3; 4; 5 ])
         in
         Alcotest.(check (list int)) "tickets in order" [ 0; 1; 2 ] tickets;
         Alcotest.(check (list int)) "one batch" [ 0; 0; 0 ]
           (List.map (fun (r : Serve.result) -> r.Serve.batch) (Serve.drain t));
         let s = Serve.stats t in
         Alcotest.(check int) "released by the idle thread" 1 s.Serve.idle_flushes;
         check_flush_sum s);
    Alcotest.test_case "a deferred job keeps its ladder: one embed lookup per job"
      `Quick (fun () ->
          (* Each 34-spin job needs a block-2 Pegasus region, and one such
             region fills the P4 floor: a 16-deep batch places one job and
             defers fifteen, then 14 of 15, and so on. *)
          let graph = Qac_chimera.Pegasus.create 4 in
          let jobs = List.init 17 (fun i -> job (Printf.sprintf "sat%d" i) (planted_sat i)) in
          let cache = Qac_embed.Cache.create () in
          let gate = Gate.create () in
          let t =
            Serve.create ~batch_jobs:16 ~embed_cache:cache ~tiler_params
              ~solver:(Gate.solver gate solver) ~graph ()
          in
          (* The first job is the blocker; the other sixteen queue behind it. *)
          Serve.submit t (List.hd jobs);
          Gate.await gate;
          List.iter (Serve.submit t) (List.tl jobs);
          Gate.release gate;
          let results = Serve.drain t in
          let s = Serve.stats t and c = Qac_embed.Cache.stats cache in
          Alcotest.(check int) "all placed" 17 s.Serve.placed;
          Alcotest.(check int) "deferrals: 15 + 14 + ... + 1" 120 s.Serve.deferrals;
          Alcotest.(check int) "one embed lookup per job" 17
            (c.Qac_embed.Cache.hits + c.Qac_embed.Cache.misses);
          (* Standalone tiles share a cache of their own: one search, the
             same embedding the service found. *)
          let fam = Family.of_topology graph and alone = Qac_embed.Cache.create () in
          List.iter2
            (fun (j : Serve.job) (r : Serve.result) ->
               match
                 Tiler.solve ~solver
                   (Tiler.tile ~params:tiler_params ~cache:alone fam [| j.Serve.problem |])
               with
               | [ (0, expected) ] -> check_response j.Serve.id expected (response_exn r)
               | _ -> Alcotest.fail (j.Serve.id ^ ": standalone solve failed"))
            jobs results);
    Alcotest.test_case "create rejects a NaN or negative window and zero threads" `Quick
      (fun () ->
         let graph = Chimera.create 4 in
         List.iter
           (fun (name, create) ->
              match create () with
              | exception Invalid_argument _ -> ()
              | t ->
                ignore (Serve.drain t);
                Alcotest.fail (name ^ " accepted"))
           [ ("NaN window", fun () ->
                 Serve.create ~batch_window_s:Float.nan ~tiler_params ~solver ~graph ());
             ("negative window", fun () ->
                 Serve.create ~batch_window_s:(-1.0) ~tiler_params ~solver ~graph ());
             ("zero threads", fun () ->
                 Serve.create ~num_threads:0 ~tiler_params ~solver ~graph ());
             ("zero batch", fun () ->
                 Serve.create ~batch_jobs:0 ~tiler_params ~solver ~graph ());
             ("NaN window in a pool", fun () ->
                 let pool =
                   Qac_serve.Shard.create ~num_shards:2 ~batch_window_s:Float.nan
                     ~tiler_params ~solver ~graph ()
                 in
                 ignore (Qac_serve.Shard.drain pool);
                 Serve.create ~tiler_params ~solver ~graph ()) ]);
    Alcotest.test_case "a huge or infinite window leaves the scheduler alive" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         List.iter
           (fun window ->
              let t =
                Serve.create ~num_threads:2 ~batch_window_s:window ~tiler_params ~solver
                  ~graph ()
              in
              Serve.submit t (job "lone" (chain_problem 4));
              (* Long enough for the scheduler to sleep on the window. *)
              Unix.sleepf 0.05;
              (match Serve.drain t with
               | [ { Serve.status = Serve.Done; _ } ] -> ()
               | _ -> Alcotest.failf "window %g: job not done" window);
              let s = Serve.stats t in
              Alcotest.(check int) "released by drain" 1 s.Serve.drain_flushes;
              check_flush_sum s)
           [ 1e300; Float.infinity ]) ]

(* Local ≡ served: [Pipeline.solve ~target:Physical] is a batch of one on
   the tiler's ladder, so a job's response is bit-identical to the one a
   one-job service on the same graph returns, with the same solver and the
   default tiler params.  Each side gets its own fresh embed cache. *)
module P = Qac_core.Pipeline

let circuits =
  lazy
    (List.map P.compile
       [ "module circuit (s, a, b, c); input s, a, b; output [1:0] c;\n\
          assign c = s ? a + b : a - b; endmodule";
         "module add (a, b, c); input [1:0] a, b; output [2:0] c; assign c = a + b; endmodule";
         "module mul (a, b, c); input [1:0] a, b; output [3:0] c; assign c = a * b; endmodule" ])

(* A circuit with every port pinned to a random value (its inputs, or its
   output, so some jobs run backward), or a random 3-SAT formula. *)
let local_problem rng kind =
  let circuits = Lazy.force circuits in
  if kind < List.length circuits then begin
    let t = List.nth circuits kind in
    let netlist = t.P.netlist in
    let ports =
      if Random.State.bool rng then List.map fst netlist.Qac_netlist.Netlist.inputs
      else List.map fst netlist.Qac_netlist.Netlist.outputs
    in
    let pins =
      List.map
        (fun name -> (name, Random.State.int rng (1 lsl Option.get (P.port_width t name))))
        ports
    in
    (P.assemble_with_pins ~pins t).Qac_qmasm.Assemble.problem
  end
  else begin
    let n = 4 + Random.State.int rng 3 in
    let lit () = (1 + Random.State.int rng n) * if Random.State.bool rng then 1 else -1 in
    let clauses =
      List.init (2 * n) (fun _ -> Printf.sprintf "%d %d %d 0" (lit ()) (lit ()) (lit ()))
    in
    let dimacs = Printf.sprintf "p cnf %d %d\n%s\n" n (2 * n) (String.concat "\n" clauses) in
    (Qac_sat.Compile.compile (Qac_sat.Dimacs.parse dimacs)).Qac_sat.Compile.problem
  end

(* One generated case: the same problem solved by [Pipeline.solve] and as
   a one-job service, on a random fabric and chain-break policy.  [Error]
   names the first figure that differs. *)
let local_vs_served (seed, kind) =
  let rng = Random.State.make [| seed |] in
  let problem = local_problem rng kind in
  let graph =
    if Random.State.bool rng then Chimera.create 4 else Qac_chimera.Pegasus.create 4
  in
  let chain_break =
    [| Qac_embed.Embedding.Vote; Discard; Polish |].(Random.State.int rng 3)
  in
  let solver =
    P.Sa { Sa.default_params with Sa.num_reads = 16; num_sweeps = 60; seed }
  in
  let local =
    P.solve ~embed_cache:(Qac_embed.Cache.create ()) ~chain_break ~solver
      ~target:(P.Physical { graph; chain_strength = None; roof_duality = false })
      problem
  in
  let service =
    Serve.create ~chain_break ~embed_cache:(Qac_embed.Cache.create ())
      ~solver:(P.composite_solve solver) ~graph ()
  in
  Serve.submit service (job "j" problem);
  match Serve.drain service with
  | [ { Serve.response = Some served; status = Serve.Done; _ } ] ->
    let local_response = Sampler.response_of_reads problem (List.map fst local.P.reads) in
    if local_response.Sampler.samples <> served.Sampler.samples then Error "samples"
    else if local_response.Sampler.num_reads <> served.Sampler.num_reads then
      Error "num_reads of the local reads"
    else if local.P.num_reads <> served.Sampler.num_reads then
      Error (Printf.sprintf "num_reads: local %d, served %d" local.P.num_reads
               served.Sampler.num_reads)
    else if local.P.timed_out <> served.Sampler.timed_out then Error "timed_out"
    else Ok ()
  | _ -> Error "the served job did not finish"

let local_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:16 ~name:"local solve == one-job serve"
         QCheck.(pair (int_bound 100_000) (int_bound 5))
         (fun case ->
            match local_vs_served case with
            | Ok () -> true
            | Error what -> QCheck.Test.fail_report what));
    (* A 13-variable SAT problem under [Discard] where a chain breaks: the
       sampler takes 16 reads and 15 are kept, and both paths report 15. *)
    Alcotest.test_case "local solve == one-job serve: case (61537, 3)" `Quick (fun () ->
        match local_vs_served (61537, 3) with
        | Ok () -> ()
        | Error what -> Alcotest.fail what) ]

let suite =
  basic_tests @ deadline_tests @ failure_tests @ trace_tests @ pegasus_tests
  @ ticket_tests @ coalesce_tests @ unsupported_topology_tests @ retained_tests
  @ flush_tests @ local_tests
