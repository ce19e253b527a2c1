(** Sharded worker pool (see shard.mli for the contract).

    Each shard is a {!Serve} instance — its own scheduler domain, its own
    bounded queue, its own embedding cache.  This layer only routes,
    translates tickets, and aggregates observability; all scheduling
    invariants live in [Serve].  The pool mutex guards the ticket table and
    the round-robin counter; it is never held across a blocking shard
    submit, so a full shard stalls only its own traffic. *)

module Cache = Qac_embed.Cache
module Store = Qac_embed.Store
module Hist = Qac_diag.Hist

type routing =
  | Affinity
  | Round_robin

type shard = {
  id : int;
  serve : Serve.t;
  cache : Cache.t;
}

type t = {
  shards : shard array;
  routing : routing;
  store : Store.t option;  (* shared artifact store behind every shard's cache *)
  mutex : Mutex.t;  (* tickets + rr counter *)
  tickets : (int, int * int) Hashtbl.t;  (* global ticket -> (shard, local) *)
  mutable next_ticket : int;
  mutable rr : int;
}

type admission =
  | Accepted of { ticket : int; shard : int }
  | Rejected of { retry_after_ms : float }

type shard_stats = {
  shard : int;
  serve : Serve.stats;
  cache : Cache.stats;
  latency : Hist.t;
}

(* --- Affinity routing -------------------------------------------------------- *)

(* FNV-1a over the digest bytes then an optional salt: explicit and stable
   across OCaml versions (Hashtbl.hash is not specified to be), uniform
   enough for load spreading, and cheap — 16 bytes + 8 per route. *)
let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let fnv1a64 (s : string) ~(salt : int) =
  let h = ref fnv_basis in
  let eat byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime in
  String.iter (fun c -> eat (Char.code c)) s;
  for shift = 0 to 7 do
    eat ((salt lsr (8 * shift)) land 0xff)
  done;
  !h

(* Route by the digest alone: fold one unsalted hash over the shard count.
   The earlier scheme scored every shard with a per-shard-salted hash and
   took the argmax (classic HRW) — stable under resizing, but it ranked
   shards by salted entropy, so the placement of a digest was a property
   of the whole score vector rather than of the digest itself.  The fold
   makes placement a pure single-hash function of the digest; the salted
   hash survives only as the tie-break for equal folds, which the modulus
   makes unreachable.  Cost: growing the pool reshuffles placements
   (mod n+1 vs mod n) — acceptable for a pool whose size is fixed at
   create time. *)
let rendezvous ~digest ~num_shards =
  if num_shards < 1 then invalid_arg "Shard.rendezvous: num_shards must be >= 1";
  Int64.to_int (Int64.unsigned_rem (fnv1a64 digest ~salt:0) (Int64.of_int num_shards))

(* --- Pool ------------------------------------------------------------------- *)

let create ?(num_shards = 1) ?(routing = Affinity) ?queue_capacity ?batch_jobs
    ?batch_window_s ?num_threads ?tiler_params ?chain_break ?store ?trace ~solver ~graph () =
  if num_shards < 1 then invalid_arg "Shard.create: num_shards must be >= 1";
  (* A trace is written from one scheduler domain. *)
  if Option.is_some trace && num_shards > 1 then
    invalid_arg "Shard.create: a trace needs num_shards = 1";
  let shards =
    Array.init num_shards (fun id ->
        (* One store behind all shards; each shard's LRU (of the default
           capacity) copy-promotes out of it independently. *)
        let cache = Cache.create ?store () in
        let serve =
          Serve.create ?queue_capacity ?batch_jobs ?batch_window_s ?num_threads
            ?tiler_params ?chain_break ~embed_cache:cache ?trace ~solver ~graph ()
        in
        { id; serve; cache })
  in
  { shards;
    routing;
    store;
    mutex = Mutex.create ();
    tickets = Hashtbl.create 256;
    next_ticket = 0;
    rr = 0 }

let num_shards t = Array.length t.shards

let route t (problem : Qac_ising.Problem.t) =
  rendezvous ~digest:(Cache.structure_digest problem) ~num_shards:(num_shards t)

(* Pick the shard for a submission; Round_robin advances the counter. *)
let choose t (job : Serve.job) =
  match t.routing with
  | Affinity -> route t job.Serve.problem
  | Round_robin ->
    Mutex.lock t.mutex;
    let s = t.rr mod num_shards t in
    t.rr <- t.rr + 1;
    Mutex.unlock t.mutex;
    s

let register t ~shard ~local =
  Mutex.lock t.mutex;
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  Hashtbl.replace t.tickets ticket (shard, local);
  Mutex.unlock t.mutex;
  ticket

let submit_all t jobs =
  let routed = List.map (fun job -> (choose t job, job)) jobs in
  (* One [Serve.submit_all] per shard: each scheduler sees its share of the
     jobs together. *)
  let locals =
    Array.map
      (fun (s : shard) ->
         let mine = List.filter_map (fun (i, job) -> if i = s.id then Some job else None) routed in
         Queue.of_seq (List.to_seq (Serve.submit_all s.serve mine)))
      t.shards
  in
  List.map (fun (s, _) -> register t ~shard:s ~local:(Queue.pop locals.(s))) routed

let submit t job = List.hd (submit_all t [ job ])

(* Retry-after: how long until the target shard plausibly frees a slot —
   one queue's worth of work at its measured throughput, or a conservative
   per-job constant before any throughput has been observed.  Floored at
   [min_retry_after_ms]: with no real service-time samples yet (or with
   jobs/s skewed high by instantly-recorded cancellations) the naive
   estimate collapses toward zero and tells every rejected client to
   hammer straight back — a first-job thundering herd. *)
let min_retry_after_ms = 10.0

let retry_after_ms (st : Serve.stats) =
  let per_job_ms =
    if st.Serve.jobs_done > 0 && st.Serve.jobs_per_second > 0.0
    then 1000.0 /. st.Serve.jobs_per_second
    else 50.0
  in
  Float.min 60_000.0
    (Float.max min_retry_after_ms
       (per_job_ms *. float_of_int (max 1 st.Serve.queue_depth)))

let try_submit t job =
  let s = choose t job in
  match Serve.try_submit t.shards.(s).serve job with
  | Some local -> Accepted { ticket = register t ~shard:s ~local; shard = s }
  | None ->
    Rejected { retry_after_ms = retry_after_ms (Serve.stats t.shards.(s).serve) }

let lookup t ticket ~who =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.tickets ticket in
  Mutex.unlock t.mutex;
  match r with
  | Some sl -> sl
  | None -> invalid_arg (who ^ ": unknown ticket")

let poll t ticket =
  let shard, local = lookup t ticket ~who:"Shard.poll" in
  Serve.peek t.shards.(shard).serve local

let cancel t ticket =
  let shard, local = lookup t ticket ~who:"Shard.cancel" in
  Serve.cancel t.shards.(shard).serve local

let stats t =
  Array.map
    (fun s ->
       { shard = s.id;
         serve = Serve.stats s.serve;
         cache = Cache.stats s.cache;
         latency = Serve.latency s.serve })
    t.shards

let latency t =
  let merged = Hist.create () in
  Array.iter (fun (s : shard) -> Hist.merge_into merged (Serve.latency s.serve)) t.shards;
  merged

let drain t =
  let per_shard =
    Array.map (fun (s : shard) -> Array.of_list (Serve.drain s.serve)) t.shards
  in
  Mutex.lock t.mutex;
  let out =
    List.init t.next_ticket (fun ticket ->
        let shard, local = Hashtbl.find t.tickets ticket in
        (ticket, per_shard.(shard).(local)))
  in
  Mutex.unlock t.mutex;
  out

(* --- Metrics exposition ------------------------------------------------------ *)

let metrics t =
  let b = Buffer.create 4096 in
  (* One [qac_<prefix><field><labels> <value>] line per field; counters
     print as integers, gauges with %g. *)
  let lines prefix labels fields =
    List.iter
      (fun (k, v) ->
         Buffer.add_string b
           (if Float.is_integer v then Printf.sprintf "qac_%s%s%s %.0f\n" prefix k labels v
            else Printf.sprintf "qac_%s%s%s %g\n" prefix k labels v))
      fields
  in
  Array.iter
    (fun { shard; serve = sv; cache = c; latency = lat } ->
       let labels = Printf.sprintf "{shard=\"%d\"}" shard in
       lines "serve_" labels (Serve.fields sv);
       lines "embed_cache_" labels (Cache.fields c);
       List.iter
         (fun (le, n) ->
            Buffer.add_string b
              (Printf.sprintf "qac_serve_latency_seconds_bucket{shard=\"%d\",le=\"%s\"} %d\n"
                 shard (if le = infinity then "+Inf" else Printf.sprintf "%g" le) n))
         (Hist.cumulative lat);
       lines "serve_latency_" labels (Serve.latency_fields lat))
    (stats t);
  (* The artifact store is pool-wide, so its counters carry no shard label. *)
  Option.iter (fun store -> lines "store_" "" (Store.fields (Store.stats store))) t.store;
  Buffer.contents b
