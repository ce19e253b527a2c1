module Topology = Qac_chimera.Topology
open Qac_ising

(* An embedding depends only on (a) the structure of the logical interaction
   graph — which variables couple, never the coefficient values —, (b) the
   identity of the hardware graph, and (c) the embedder parameters that
   steer the search.  The key digests exactly those three, so time-unrolled
   reruns, bench sweeps and qbsolv-style repeated subproblems with fresh
   coefficients all hit. *)
let add_structure b (p : Problem.t) =
  let add_int v =
    (* 63-bit ints, little-endian, fixed width: unambiguous concatenation. *)
    Buffer.add_int64_le b (Int64.of_int v)
  in
  add_int p.Problem.num_vars;
  Array.iter
    (fun ((i, j), _) ->
       add_int i;
       add_int j)
    p.Problem.couplers

(* The problem-dependent part of {!key} on its own: what a problem "looks
   like" to the embedder, independent of any particular hardware graph or
   search params.  The shard router hashes this, so same-shaped traffic
   lands on the same warm shard whatever block size the tiler ends up
   choosing. *)
let structure_digest (p : Problem.t) =
  let b = Buffer.create 1024 in
  add_structure b p;
  Digest.string (Buffer.contents b)

let key graph (p : Problem.t) ~(params : Cmr.params) =
  let b = Buffer.create 1024 in
  let add_int v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_string b graph.Topology.name;
  Buffer.add_char b '\000';
  List.iter
    (fun (name, v) ->
       Buffer.add_string b name;
       Buffer.add_char b '\000';
       add_int v)
    graph.Topology.params;
  add_int (Topology.num_qubits graph);
  Array.iteri (fun q w -> if not w then add_int q) graph.Topology.working;
  add_int (-1);
  add_structure b p;
  add_int params.Cmr.tries;
  add_int params.Cmr.max_passes;
  add_int (Int64.to_int (Int64.bits_of_float params.Cmr.alpha));
  add_int params.Cmr.seed;
  (* num_threads deliberately excluded: the embedder result is independent
     of the thread count by contract. *)
  Digest.string (Buffer.contents b)

type entry = {
  embedding : Embedding.t;
  mutable last_used : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  store_hits : int;
}

type t = {
  capacity : int;
  table : (Digest.t, entry) Hashtbl.t;
  lock : Mutex.t;
  store : Store.t option;
  mutable tick : int;
  mutable counts : stats;  (* lock-guarded; [entries] stays 0, {!stats} fills it *)
}

let create ?(capacity = 64) ?store () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  { capacity;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    store;
    tick = 0;
    counts = { hits = 0; misses = 0; evictions = 0; entries = 0; store_hits = 0 } }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let insert_locked t key embedding =
  match Hashtbl.find_opt t.table key with
  | Some entry -> entry.last_used <- t.tick
  | None ->
    Hashtbl.replace t.table key { embedding; last_used = t.tick };
    if Hashtbl.length t.table > t.capacity then begin
      (* Evict the least recently used entry.  Linear in the (small,
         bounded) table; keeps the structure a plain Hashtbl. *)
      let victim = ref None in
      Hashtbl.iter
        (fun k e ->
           match !victim with
           | Some (_, age) when age <= e.last_used -> ()
           | _ -> victim := Some (k, e.last_used))
        t.table;
      match !victim with
      | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.counts <- { t.counts with evictions = t.counts.evictions + 1 }
      | None -> ()
    end

let find t key =
  with_lock t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.table key with
      | Some entry ->
        entry.last_used <- t.tick;
        t.counts <- { t.counts with hits = t.counts.hits + 1 };
        Some entry.embedding
      | None ->
        (* Fall through to the persistent store and promote: a warm corpus
           makes a freshly restarted shard hit on its very first lookup.
           Lock order is cache -> store; the store never calls back. *)
        (match Option.bind t.store (fun s -> Store.find_embedding s key) with
         | Some embedding ->
           insert_locked t key embedding;
           let c = t.counts in
           t.counts <- { c with hits = c.hits + 1; store_hits = c.store_hits + 1 };
           Some embedding
         | None ->
           t.counts <- { t.counts with misses = t.counts.misses + 1 };
           None))

let add t key embedding =
  with_lock t (fun () ->
      t.tick <- t.tick + 1;
      insert_locked t key embedding;
      Option.iter (fun s -> Store.put_embedding s key embedding) t.store)

let stats t = with_lock t (fun () -> { t.counts with entries = Hashtbl.length t.table })

let fields (s : stats) =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [ ("hits", s.hits); ("misses", s.misses); ("evictions", s.evictions);
      ("entries", s.entries); ("store_hits", s.store_hits) ]

(* Process-wide default, shared by every [Pipeline.run] that is not handed
   an explicit cache.  Created when the module is initialised, so
   concurrent first calls from several domains get the same cache. *)
let shared_cache = create ~capacity:64 ()
let shared () = shared_cache
