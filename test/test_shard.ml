(** The sharded serving tier: rendezvous routing properties, pool-level
    determinism across shard counts, cache-affinity placement, admission
    control, and the socket front end. *)

open Qac_ising
module Chimera = Qac_chimera.Chimera
module Cache = Qac_embed.Cache
module Tiler = Qac_embed.Tiler
module Serve = Qac_serve.Serve
module Shard = Qac_serve.Shard
module Server = Qac_serve.Server
module Protocol = Qac_serve.Protocol
module Sampler = Qac_anneal.Sampler
module Sa = Qac_anneal.Sa

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

let job ?timeout_ms id problem = { Serve.id; problem; timeout_ms }

let check_response name (a : Sampler.response) (b : Sampler.response) =
  Alcotest.(check int) (name ^ ": num_reads") a.Sampler.num_reads b.Sampler.num_reads;
  Alcotest.(check int)
    (name ^ ": distinct")
    (List.length a.Sampler.samples)
    (List.length b.Sampler.samples);
  List.iter2
    (fun (x : Sampler.sample) (y : Sampler.sample) ->
       Alcotest.(check (array int)) (name ^ ": spins") x.Sampler.spins y.Sampler.spins;
       Alcotest.(check (float 1e-9)) (name ^ ": energy") x.Sampler.energy
         y.Sampler.energy;
       Alcotest.(check int) (name ^ ": occurrences") x.Sampler.num_occurrences
         y.Sampler.num_occurrences)
    a.Sampler.samples b.Sampler.samples

let response_exn (r : Serve.result) =
  match r.Serve.response with
  | Some resp -> resp
  | None -> Alcotest.fail (r.Serve.id ^ ": no response")

(* Same interaction structure as [chain_problem n], so it routes to the
   same shard, but different fields, so it coalesces with nothing. *)
let blocker_for n =
  job (Printf.sprintf "blocker%d" n)
    (Problem.create ~num_vars:n ~h:(Array.make n 0.125)
       ~j:(List.init (n - 1) (fun i -> ((i, i + 1), 0.75)))
       ())

let digests n =
  List.init n (fun i -> Digest.string (Printf.sprintf "problem-%d" i))

let routing_tests =
  [ Alcotest.test_case "rendezvous is deterministic and in range" `Quick
      (fun () ->
         List.iter
           (fun d ->
              let s = Shard.rendezvous ~digest:d ~num_shards:7 in
              Alcotest.(check bool) "in range" true (s >= 0 && s < 7);
              Alcotest.(check int) "stable on repeat" s
                (Shard.rendezvous ~digest:d ~num_shards:7))
           (digests 200));
    Alcotest.test_case "single shard takes everything" `Quick (fun () ->
        List.iter
          (fun d ->
             Alcotest.(check int) "shard 0" 0 (Shard.rendezvous ~digest:d ~num_shards:1))
          (digests 50));
    Alcotest.test_case "load spreads over shards" `Quick (fun () ->
        let n = 4 and keys = 2000 in
        let counts = Array.make n 0 in
        List.iter
          (fun d ->
             let s = Shard.rendezvous ~digest:d ~num_shards:n in
             counts.(s) <- counts.(s) + 1)
          (digests keys);
        (* Binomial(2000, 1/4) is tightly concentrated: mean 500, sd ~19.
           A factor-2 band is > 10 sigma on each side. *)
        Array.iteri
          (fun i c ->
             Alcotest.(check bool)
               (Printf.sprintf "shard %d balanced (%d keys)" i c)
               true
               (c > keys / (2 * n) && c < keys * 2 / n))
          counts);
    Alcotest.test_case "placement is a pure function of digest and pool size"
      `Quick (fun () ->
          (* The digest-alone fold: no salt, no per-shard score, no state —
             re-deriving placement from the digest must agree everywhere
             (router, metrics readers, external clients).  The flip side,
             documented here on purpose: resizing is a different routing
             function and reshuffles most keys (pool size is fixed at
             create, so no live pool ever observes that). *)
          let moved = ref 0 in
          let keys = 2000 in
          List.iter
            (fun d ->
               let s = Shard.rendezvous ~digest:d ~num_shards:4 in
               Alcotest.(check int) "re-derivation agrees" s
                 (Shard.rendezvous ~digest:d ~num_shards:4);
               if s <> Shard.rendezvous ~digest:d ~num_shards:5 then incr moved)
            (digests keys);
          Alcotest.(check bool)
            (Printf.sprintf "resize reshuffles most keys (%d of %d)" !moved keys)
            true
            (!moved > keys / 2));
    Alcotest.test_case "route agrees with rendezvous on the structure digest"
      `Quick (fun () ->
          let graph = Chimera.create 4 in
          let pool =
            Shard.create ~num_shards:3 ~tiler_params ~solver ~graph ()
          in
          List.iter
            (fun n ->
               let p = chain_problem n in
               Alcotest.(check int) "route = rendezvous"
                 (Shard.rendezvous ~digest:(Cache.structure_digest p) ~num_shards:3)
                 (Shard.route pool p))
            [ 3; 4; 5; 6 ];
          ignore (Shard.drain pool)) ]

let pool_tests =
  [ Alcotest.test_case "pool results are identical at 1, 2 and 3 shards" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let jobs () =
           List.init 6 (fun i -> job (string_of_int i) (chain_problem (3 + (i mod 3))))
         in
         let run ?routing num_shards =
           let pool =
             Shard.create ~num_shards ?routing ~tiler_params ~solver ~graph ()
           in
           List.iter (fun j -> ignore (Shard.submit pool j)) (jobs ());
           List.map snd (Shard.drain pool)
         in
         let r1 = run 1 and r2 = run 2 and r3 = run 3 in
         let r3_round_robin = run ~routing:Shard.Round_robin 3 in
         List.iter
           (fun other ->
              List.iter2
                (fun (a : Serve.result) (b : Serve.result) ->
                   Alcotest.(check string) "same id" a.Serve.id b.Serve.id;
                   check_response a.Serve.id (response_exn a) (response_exn b))
                r1 other)
           [ r2; r3; r3_round_robin ]);
    Alcotest.test_case "pool equals plain Serve on the same jobs" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let jobs () =
           List.init 4 (fun i -> job (string_of_int i) (chain_problem (3 + i)))
         in
         let plain = Serve.create ~tiler_params ~solver ~graph () in
         List.iter (Serve.submit plain) (jobs ());
         let expected = Serve.drain plain in
         let pool = Shard.create ~num_shards:2 ~tiler_params ~solver ~graph () in
         List.iter (fun j -> ignore (Shard.submit pool j)) (jobs ());
         let got = List.map snd (Shard.drain pool) in
         List.iter2
           (fun (a : Serve.result) (b : Serve.result) ->
              check_response a.Serve.id (response_exn a) (response_exn b))
           expected got);
    Alcotest.test_case "affinity sends same-structure jobs to one warm shard"
      `Quick (fun () ->
          let graph = Chimera.create 6 in
          let p = chain_problem 5 in
          let pool =
            Shard.create ~num_shards:3 ~routing:Shard.Affinity ~tiler_params
              ~solver ~graph ()
          in
          let home = Shard.route pool p in
          (* Same structure, different coefficients: every job must land on
             [home] and all cache traffic must stay there. *)
          let tickets =
            List.init 5 (fun i ->
                let vary = Problem.create ~num_vars:5
                    ~h:(Array.init 5 (fun k -> float_of_int (i + k) /. 10.0))
                    ~j:(List.init 4 (fun k -> ((k, k + 1), 1.0 +. float_of_int i)))
                    ()
                in
                Alcotest.(check int) "same structure, same shard" home
                  (Shard.route pool vary);
                Shard.submit pool (job (string_of_int i) vary))
          in
          ignore (Shard.drain pool);
          List.iter
            (fun t ->
               match Shard.poll pool t with
               | Some { Serve.status = Serve.Done; _ } -> ()
               | _ -> Alcotest.fail "job did not finish")
            tickets;
          let stats = Shard.stats pool in
          Array.iter
            (fun (s : Shard.shard_stats) ->
               let c = s.Shard.cache in
               if s.Shard.shard = home then begin
                 Alcotest.(check bool) "home shard hit the cache" true
                   (c.Cache.hits > 0);
                 Alcotest.(check int) "single structural miss" 1 c.Cache.misses
               end
               else begin
                 Alcotest.(check int) "cold shard: no lookups" 0
                   (c.Cache.hits + c.Cache.misses);
                 Alcotest.(check int) "cold shard: no jobs" 0
                   s.Shard.serve.Serve.jobs_done
               end)
            stats);
    Alcotest.test_case "poll and cancel work through global tickets" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         (* A blocker held in flight on each job's shard keeps both jobs
            queued until the gate opens, so cancel has a stable target. *)
         let gate = Gate.create () in
         let pool =
           Shard.create ~num_shards:2 ~batch_jobs:100 ~batch_window_s:60.0
             ~tiler_params ~solver:(Gate.solver gate solver) ~graph ()
         in
         let sizes =
           if Shard.route pool (chain_problem 4) = Shard.route pool (chain_problem 5)
           then [ 4 ]
           else [ 4; 5 ]
         in
         List.iter (fun n -> ignore (Shard.submit pool (blocker_for n))) sizes;
         Gate.await ~n:(List.length sizes) gate;
         let t0 = Shard.submit pool (job "keep" (chain_problem 4)) in
         let t1 = Shard.submit pool (job "kill" (chain_problem 5)) in
         Alcotest.(check bool) "nothing finished yet" true
           (Shard.poll pool t0 = None);
         Alcotest.(check bool) "cancel queued job" true (Shard.cancel pool t1);
         Gate.release gate;
         ignore (Shard.drain pool);
         (match Shard.poll pool t0 with
          | Some { Serve.status = Serve.Done; _ } -> ()
          | _ -> Alcotest.fail "kept job should finish");
         (match Shard.poll pool t1 with
          | Some { Serve.status = Serve.Canceled; response = None; _ } -> ()
          | _ -> Alcotest.fail "canceled job should report Canceled");
         Alcotest.check_raises "unknown ticket"
           (Invalid_argument "Shard.poll: unknown ticket") (fun () ->
             ignore (Shard.poll pool 999)));
    Alcotest.test_case "try_submit sheds load with a retry hint" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         (* The held blocker keeps "first" queued, so the queue stays full. *)
         let gate = Gate.create () in
         let pool =
           Shard.create ~num_shards:1 ~queue_capacity:1 ~batch_jobs:100
             ~batch_window_s:60.0 ~tiler_params ~solver:(Gate.solver gate solver)
             ~graph ()
         in
         ignore (Shard.submit pool (blocker_for 4));
         Gate.await gate;
         (match Shard.try_submit pool (job "first" (chain_problem 4)) with
          | Shard.Accepted { shard; _ } -> Alcotest.(check int) "shard 0" 0 shard
          | Shard.Rejected _ -> Alcotest.fail "empty queue must accept");
         (* A duplicate of the queued job coalesces instead of being shed,
            even with the queue full. *)
         (match Shard.try_submit pool (job "dup" (chain_problem 4)) with
          | Shard.Accepted _ -> ()
          | Shard.Rejected _ -> Alcotest.fail "duplicate must coalesce, not shed");
         (match Shard.try_submit pool (job "second" (chain_problem 5)) with
          | Shard.Rejected { retry_after_ms } ->
            Alcotest.(check bool) "hint respects the 10ms floor" true
              (retry_after_ms >= 10.0)
          | Shard.Accepted _ -> Alcotest.fail "full queue must reject");
         Gate.release gate;
         ignore (Shard.drain pool));
    Alcotest.test_case "metrics exposition carries per-shard counters" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let pool = Shard.create ~num_shards:2 ~tiler_params ~solver ~graph () in
         List.iter
           (fun i -> ignore (Shard.submit pool (job (string_of_int i) (chain_problem (3 + i)))))
           [ 0; 1; 2 ];
         ignore (Shard.drain pool);
         let text = Shard.metrics pool in
         let contains needle =
           let rec scan i =
             i + String.length needle <= String.length text
             && (String.sub text i (String.length needle) = needle || scan (i + 1))
           in
           scan 0
         in
         List.iter
           (fun needle ->
              Alcotest.(check bool) (needle ^ " present") true (contains needle))
           [ "qac_serve_jobs_done{shard=\"0\"}";
             "qac_serve_jobs_done{shard=\"1\"}";
             "qac_embed_cache_hits{shard=\"0\"}";
             "qac_serve_latency_seconds_bucket{shard=\"0\",le=";
             "qac_serve_latency_p99_seconds{shard=\"1\"}" ];
         let st = Shard.stats pool in
         let total =
           Array.fold_left
             (fun acc (s : Shard.shard_stats) -> acc + s.Shard.serve.Serve.jobs_done)
             0 st
         in
         Alcotest.(check int) "jobs land somewhere" 3 total;
         Alcotest.(check int) "merged latency counts every job" 3
           (Qac_diag.Hist.count (Shard.latency pool));
         (* Prometheus reads a repeated series as a conflict: one +Inf
            bucket per shard, holding that shard's job count. *)
         Array.iter
           (fun (s : Shard.shard_stats) ->
              let prefix =
                Printf.sprintf "qac_serve_latency_seconds_bucket{shard=\"%d\",le=\"+Inf\"} "
                  s.Shard.shard
              in
              Alcotest.(check (list string)) "one +Inf line"
                [ prefix ^ string_of_int (Qac_diag.Hist.count s.Shard.latency) ]
                (List.filter (String.starts_with ~prefix) (String.split_on_char '\n' text)))
           st);
    Alcotest.test_case "stats reply, metrics and trace summary name the same counters"
      `Quick (fun () ->
        let graph = Chimera.create 6 in
        let jobs = List.init 3 (fun i -> job (string_of_int i) (chain_problem (3 + i))) in
        let pool = Shard.create ~num_shards:2 ~tiler_params ~solver ~graph () in
        List.iter (fun j -> ignore (Shard.submit pool j)) jobs;
        ignore (Shard.drain pool);
        let trace = Qac_diag.Trace.create () in
        let traced = Shard.create ~trace ~tiler_params ~solver ~graph () in
        List.iter (fun j -> ignore (Shard.submit traced j)) jobs;
        ignore (Shard.drain traced);
        (* Each declaration, spelled the way each view spells it. *)
        let spell prefix sep fields =
          List.map (fun (k, _) -> prefix ^ String.map (function '_' -> sep | c -> c) k) fields
        in
        let st = (Shard.stats pool).(0) in
        let serve_fields = Serve.fields st.Shard.serve in
        let latency_fields = Serve.latency_fields st.Shard.latency in
        let cache_fields = Qac_embed.Cache.fields st.Shard.cache in
        let starts prefix s = String.starts_with ~prefix s in
        (match Protocol.stats_to_json (Shard.stats pool) with
         | Protocol.Arr shards ->
           Alcotest.(check int) "two shards" 2 (List.length shards);
           List.iter
             (function
               | Protocol.Obj kv ->
                 let keys name =
                   match List.assoc name kv with
                   | Protocol.Obj o -> List.map fst o
                   | _ -> Alcotest.fail (name ^ " is not an object")
                 in
                 Alcotest.(check (list string)) "stats reply serve keys"
                   (spell "" '_' serve_fields) (keys "serve");
                 Alcotest.(check (list string)) "stats reply latency keys"
                   (spell "" '_' latency_fields) (keys "latency")
               | _ -> Alcotest.fail "shard entry is not an object")
             shards
         | _ -> Alcotest.fail "stats is not an array");
        let metric_names =
          List.filter_map
            (fun line ->
               match String.index_opt line '{' with
               | Some k
                 when starts "qac_serve_" line
                      && starts "{shard=\"0\"}" (String.sub line k (String.length line - k)) ->
                 Some (String.sub line 0 k)
               | _ -> None)
            (String.split_on_char '\n' (Shard.metrics pool))
        in
        Alcotest.(check (list string)) "metric names"
          (spell "qac_serve_" '_' serve_fields @ spell "qac_serve_latency_" '_' latency_fields)
          metric_names;
        let summary_keys prefix =
          List.filter (starts prefix) (List.map fst (Qac_diag.Trace.summary trace))
        in
        Alcotest.(check (list string)) "serve trace summary keys"
          (spell "serve-" '-' serve_fields @ spell "serve-latency-" '-' latency_fields)
          (summary_keys "serve-");
        Alcotest.(check (list string)) "embed-cache trace summary keys"
          (spell "embed-cache-" '-' cache_fields) (summary_keys "embed-cache-");
        Alcotest.check_raises "a trace is single-domain"
          (Invalid_argument "Shard.create: a trace needs num_shards = 1") (fun () ->
            ignore (Shard.create ~num_shards:2 ~trace ~tiler_params ~solver ~graph ()));
        (* What released each batch is part of that declaration, and every
           batch has exactly one cause. *)
        List.iter
          (fun k ->
             Alcotest.(check bool) (k ^ " declared") true (List.mem_assoc k serve_fields))
          [ "full_flushes"; "idle_flushes"; "window_flushes"; "drain_flushes" ];
        let causes_sum (s : Serve.stats) =
          s.Serve.full_flushes + s.Serve.idle_flushes + s.Serve.window_flushes
          + s.Serve.drain_flushes
        in
        let sv = (Shard.stats traced).(0).Shard.serve in
        Alcotest.(check int) "flush causes sum to batches" sv.Serve.batches (causes_sum sv);
        Array.iter
          (fun (x : Shard.shard_stats) ->
             Alcotest.(check int) "per shard, causes sum to batches"
               x.Shard.serve.Serve.batches (causes_sum x.Shard.serve))
          (Shard.stats pool)) ]

let server_tests =
  [ Alcotest.test_case "socket round-trip equals in-process results" `Quick
      (fun () ->
         let graph = Chimera.create 6 in
         let jobs () =
           List.init 4 (fun i -> job (string_of_int i) (chain_problem (3 + i)))
         in
         (* In-process reference. *)
         let reference = Serve.create ~tiler_params ~solver ~graph () in
         List.iter (Serve.submit reference) (jobs ());
         let expected = Serve.drain reference in
         (* Same jobs through a live server over a Unix-domain socket. *)
         let pool = Shard.create ~num_shards:2 ~tiler_params ~solver ~graph () in
         let sock_path = Filename.temp_file "qac_test_shard" ".sock" in
         let server =
           Server.create ~pool ~sockaddr:(Unix.ADDR_UNIX sock_path) ()
         in
         let server_domain = Domain.spawn (fun () -> Server.run server) in
         let fd = Protocol.connect (Unix.ADDR_UNIX sock_path) in
         let tickets =
           List.map
             (fun j ->
                match Protocol.call fd (Protocol.Submit j) with
                | Protocol.Submitted { ticket; _ } -> ticket
                | _ -> Alcotest.fail "submit not accepted")
             (jobs ())
         in
         let got =
           List.map
             (fun ticket ->
                let rec poll () =
                  match Protocol.call fd (Protocol.Poll ticket) with
                  | Protocol.Completed r -> r
                  | Protocol.Pending ->
                    Unix.sleepf 0.002;
                    poll ()
                  | _ -> Alcotest.fail "unexpected poll reply"
                in
                poll ())
             tickets
         in
         (match Protocol.call fd Protocol.Stats with
          | Protocol.Stats_json (Protocol.Arr shards) ->
            Alcotest.(check int) "stats for both shards" 2 (List.length shards)
          | _ -> Alcotest.fail "unexpected stats reply");
         (match Protocol.call fd Protocol.Metrics with
          | Protocol.Metrics_text text ->
            Alcotest.(check bool) "metrics nonempty" true (String.length text > 0)
          | _ -> Alcotest.fail "unexpected metrics reply");
         (match Protocol.call fd Protocol.Shutdown with
          | Protocol.Shutdown_ok -> ()
          | _ -> Alcotest.fail "unexpected shutdown reply");
         Unix.close fd;
         let drained = Domain.join server_domain in
         Alcotest.(check int) "drain covers every ticket" 4 (List.length drained);
         List.iter2
           (fun (a : Serve.result) (b : Serve.result) ->
              Alcotest.(check string) "id" a.Serve.id b.Serve.id;
              check_response a.Serve.id (response_exn a) (response_exn b))
           expected got;
         Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock_path));
    Alcotest.test_case "server rejects garbage and oversized frames" `Quick
      (fun () ->
         let graph = Chimera.create 4 in
         let pool = Shard.create ~num_shards:1 ~tiler_params ~solver ~graph () in
         let sock_path = Filename.temp_file "qac_test_shard" ".sock" in
         let server =
           Server.create ~pool ~sockaddr:(Unix.ADDR_UNIX sock_path) ()
         in
         let server_domain = Domain.spawn (fun () -> Server.run server) in
         (* Garbage JSON in a well-formed frame: Error reply, connection
            survives for the next request. *)
         let fd = Protocol.connect (Unix.ADDR_UNIX sock_path) in
         Protocol.write_frame fd "this is not json";
         (match Protocol.read_frame fd with
          | Some payload ->
            (match Protocol.reply_of_json (Protocol.json_of_string payload) with
             | Protocol.Error _ -> ()
             | _ -> Alcotest.fail "garbage should earn an Error reply")
          | None -> Alcotest.fail "server closed on recoverable garbage");
         (match Protocol.call fd Protocol.Metrics with
          | Protocol.Metrics_text _ -> ()
          | _ -> Alcotest.fail "connection should survive garbage");
         (* Unknown op: also an Error reply. *)
         Protocol.write_frame fd "{\"op\":\"frobnicate\"}";
         (match Protocol.read_frame fd with
          | Some payload ->
            (match Protocol.reply_of_json (Protocol.json_of_string payload) with
             | Protocol.Error _ -> ()
             | _ -> Alcotest.fail "unknown op should earn an Error reply")
          | None -> Alcotest.fail "server closed on unknown op");
         (* Oversized declared length: the server answers Error and drops
            the connection (the stream can't be resynchronized). *)
         let header = Bytes.create 4 in
         Bytes.set_int32_be header 0 (Int32.of_int (Protocol.max_frame_len + 1));
         ignore (Unix.write fd header 0 4);
         (match Protocol.read_frame fd with
          | Some payload ->
            (match Protocol.reply_of_json (Protocol.json_of_string payload) with
             | Protocol.Error _ -> ()
             | _ -> Alcotest.fail "oversized frame should earn an Error reply")
          | None -> ()  (* dropping without a reply is also acceptable *)
          | exception Protocol.Protocol_error _ -> ());
         Unix.close fd;
         (* A fresh connection still works, then shuts the server down. *)
         let fd2 = Protocol.connect (Unix.ADDR_UNIX sock_path) in
         (match Protocol.call fd2 Protocol.Shutdown with
          | Protocol.Shutdown_ok -> ()
          | _ -> Alcotest.fail "unexpected shutdown reply");
         Unix.close fd2;
         ignore (Domain.join server_domain));
    Alcotest.test_case "a bad unicode escape earns Error and the connection keeps serving"
      `Quick (fun () ->
        let graph = Chimera.create 4 in
        let pool = Shard.create ~num_shards:1 ~tiler_params ~solver ~graph () in
        let sock_path = Filename.temp_file "qac_test_shard" ".sock" in
        let server = Server.create ~pool ~sockaddr:(Unix.ADDR_UNIX sock_path) () in
        let server_domain = Domain.spawn (fun () -> Server.run server) in
        let fd = Protocol.connect (Unix.ADDR_UNIX sock_path) in
        Protocol.write_frame fd "{\"op\":\"poll\",\"ticket\":\"\\u12g4\"}";
        (match Protocol.read_frame fd with
         | Some payload ->
           (match Protocol.reply_of_json (Protocol.json_of_string payload) with
            | Protocol.Error _ -> ()
            | _ -> Alcotest.fail "bad escape should earn an Error reply")
         | None -> Alcotest.fail "server closed on a bad escape");
        (match Protocol.call fd Protocol.Stats with
         | Protocol.Stats_json _ -> ()
         | _ -> Alcotest.fail "stats should still succeed on the same connection");
        (match Protocol.call fd Protocol.Shutdown with
         | Protocol.Shutdown_ok -> ()
         | _ -> Alcotest.fail "unexpected shutdown reply");
        Unix.close fd;
        ignore (Domain.join server_domain)) ]

let unsupported_topology_tests =
  [ Alcotest.test_case "create refuses an unsupported topology" `Quick (fun () ->
        let alien =
          Qac_chimera.Topology.create ~name:"alien" ~params:[] ~num_qubits:4
            ~edges:[ (0, 1); (1, 2); (2, 3); (0, 3) ] ()
        in
        match Shard.create ~num_shards:2 ~tiler_params ~solver ~graph:alien () with
        | exception Invalid_argument _ -> ()
        | pool ->
          ignore (Shard.drain pool);
          Alcotest.fail "create accepted an unsupported graph") ]

let suite = routing_tests @ pool_tests @ server_tests @ unsupported_topology_tests
