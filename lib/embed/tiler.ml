(** Multi-problem tiling (see tiler.mli for the contract).

    The load-bearing invariant is {e composition invariance}: every job is
    embedded into the pristine local fabric ([Family.build_local k]) —
    never into its eventual position on the chip — and only clean tiles
    enter the pool, so any placed block is isomorphic (by translation, with
    identical local numbering) to that local graph.  The embedding, local
    physical problem, and solved response of a job therefore depend on
    (job, params) alone, not on what else shares the chip or where the job
    lands.  All fabric geometry lives in {!Qac_chimera.Family}; this module
    only walks the tile grid. *)

module Topology = Qac_chimera.Topology
module Family = Qac_chimera.Family
module Sampler = Qac_anneal.Sampler
module Parallel = Qac_anneal.Parallel
module Rng = Qac_anneal.Rng
module Trace = Qac_diag.Trace
open Qac_ising

type params = {
  seed : int;
  attempts_per_size : int;
  max_block : int option;
  slack : float;
  embed_params : Cmr.params option;
  chain_strength : float option;
}

let default_params =
  { seed = 1;
    attempts_per_size = 2;
    max_block = None;
    slack = 3.0;
    embed_params = None;
    chain_strength = None }

type region = {
  origin_row : int;
  origin_col : int;
  block : int;
  qubits : int array;
}

type placed = {
  job : int;
  region : region;
  embedding : Embedding.t;
  physical : Problem.t;
}

type outcome =
  | Placed of placed
  | Deferred
  | Failed of string

type t = {
  family : Family.t;
  problems : Problem.t array;
  outcomes : outcome array;
}

(* --- Placement geometry ------------------------------------------------------ *)

(* First free footprint in row-major origin order; deterministic in job
   order.  [fp] is the footprint in tiles, which for Pegasus exceeds the
   block size by one (adjacent blocks would otherwise share a boundary
   offset column). *)
let first_fit free ~rows ~cols ~fp =
  let fits r0 c0 =
    let ok = ref true in
    for r = r0 to r0 + fp - 1 do
      for c = c0 to c0 + fp - 1 do
        if not free.(r).(c) then ok := false
      done
    done;
    !ok
  in
  let found = ref None in
  (try
     for r0 = 0 to rows - fp do
       for c0 = 0 to cols - fp do
         if fits r0 c0 then begin
           found := Some (r0, c0);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let mark_used free ~r0 ~c0 ~fp =
  for r = r0 to r0 + fp - 1 do
    for c = c0 to c0 + fp - 1 do
      free.(r).(c) <- false
    done
  done

(* --- The embedding ladder --------------------------------------------------- *)

(* Seeds are a pure function of (base, block, attempt): which attempt
   succeeds — and the embedding it finds — cannot depend on other jobs. *)
let attempt_seed base ~block ~attempt =
  Rng.next_seed (Rng.create (((base * 1_000_003) + block) * 1_000_003 + attempt))

(* Find (block, embedding) for one problem — grid-independent.  The ladder
   starts at the smallest block whose capacity covers [slack * num_vars] and
   grows on failure; dense problems get the deterministic clique template as
   a last resort at each size.  Each attempt looks in [cache] first.  With
   [trace], a hit records [embed-cache-hit]; the first miss opens the
   [embed] span, which then holds the rest of the ladder, its
   [embed-cache-miss] count and the embedding's size counters. *)
let ladder ?cache ?trace ~params ~seed ~cmr_threads ~fam ~kmax ~kclean problem =
  let count key v = Trace.counter_opt trace key v in
  let record r =
    Result.iter
      (fun (_, e) ->
         count "physical-qubits" (Embedding.num_physical_qubits e);
         count "max-chain-length" (Embedding.max_chain_length e))
      r;
    r
  in
  let misses = ref 0 in
  let rec grow k =
    if k > kmax then
      Error (Printf.sprintf "no embedding found up to block %d" kmax)
    else if k > kclean then
      Error
        (Printf.sprintf
           "problem too large for the topology (needs a %dx%d clean block; largest is %dx%d)"
           k k kclean kclean)
    else begin
      let local = fam.Family.build_local k in
      let base =
        match params.embed_params with
        | Some p -> p
        | None -> Cmr.params_for local
      in
      let rec attempt a =
        if a >= params.attempts_per_size then
          (* Dense interaction graphs defeat the path-based heuristic; the
             clique template is deterministic, so it keeps the invariance. *)
          match Clique.find local problem with
          | Some e -> Ok (k, e)
          | None -> grow (k + 1)
        else
          let eparams =
            { base with
              Cmr.seed = attempt_seed seed ~block:k ~attempt:a;
              num_threads = cmr_threads }
          in
          let key = Option.map (fun c -> (c, Cache.key local problem ~params:eparams)) cache in
          match Option.bind key (fun (c, key) -> Cache.find c key) with
          | Some e ->
            count "embed-cache-hit" 1;
            Ok (k, e)
          | None ->
            let search () =
              incr misses;
              count "embed-cache-miss" !misses;
              match Cmr.find ~params:eparams local problem with
              | Some e ->
                Option.iter (fun (c, key) -> Cache.add c key e) key;
                Ok (k, e)
              | None -> attempt (a + 1)
            in
            if !misses > 0 then search ()
            else Trace.with_span_opt trace "embed" (fun () -> record (search ()))
      in
      attempt 0
    end
  in
  let n = problem.Problem.num_vars in
  if n = 0 then Ok (0, { Embedding.chains = [||] })
  else begin
    let k0 =
      let need = params.slack *. float_of_int n in
      let rec find k =
        if k >= kmax then kmax
        else if float_of_int (fam.Family.block_capacity k) >= need then k
        else find (k + 1)
      in
      find 1
    in
    let r = grow k0 in
    if !misses = 0 then record r else r
  end

(* --- Tiling ----------------------------------------------------------------- *)

type ladder = (int * Embedding.t, string) result

(* Phase 1 — the per-job ladders are independent of the grid and of each
   other, so they parallelize freely (the cache is mutex-guarded).  Threads
   the jobs leave idle go to each job's CMR tries, whose result does not
   depend on their count. *)
let ladders ?(params = default_params) ?cache ?trace ?seeds ?(num_threads = 1) fam problems =
  let kclean = Family.max_feasible_block fam in
  let kmax =
    min fam.Family.max_block
      (Option.value params.max_block ~default:fam.Family.max_block)
  in
  let n = Array.length problems in
  let cmr_threads = if n > 0 && n < num_threads then num_threads / n else 1 in
  let seed_of i = match seeds with Some s -> s.(i) | None -> params.seed in
  let out = Array.make n (Error "not attempted") in
  Parallel.run_tasks ~num_workers:num_threads n (fun i ->
      out.(i) <-
        ladder ?cache ?trace ~params ~seed:(seed_of i) ~cmr_threads ~fam ~kmax ~kclean
          problems.(i));
  out

(* Phase 2 — sequential first-fit placement in job order. *)
let place ?(params = default_params) fam problems ladders =
  if Array.length ladders <> Array.length problems then
    invalid_arg "Tiler.place: one ladder per problem";
  let free = Array.map Array.copy fam.Family.clean in
  let outcomes =
    Array.mapi
      (fun i lr ->
         match lr with
         | Error msg -> Failed msg
         | Ok (0, embedding) ->
           Placed
             { job = i;
               region = { origin_row = 0; origin_col = 0; block = 0; qubits = [||] };
               embedding;
               physical = Problem.empty }
         | Ok (block, embedding) ->
           let fp = fam.Family.footprint block in
           (match first_fit free ~rows:fam.Family.rows ~cols:fam.Family.cols ~fp with
            | None -> Deferred
            | Some (r0, c0) ->
              mark_used free ~r0 ~c0 ~fp;
              let physical =
                Embedding.apply ?chain_strength:params.chain_strength
                  (fam.Family.build_local block) problems.(i) embedding
              in
              Placed
                { job = i;
                  region =
                    { origin_row = r0;
                      origin_col = c0;
                      block;
                      qubits = fam.Family.block_qubits ~r0 ~c0 ~block };
                  embedding;
                  physical }))
      ladders
  in
  { family = fam; problems; outcomes }

let tile ?params ?cache ?seeds ?num_threads fam problems =
  place ?params fam problems (ladders ?params ?cache ?seeds ?num_threads fam problems)

let occupancy t =
  let used =
    Array.fold_left
      (fun acc o ->
         match o with Placed p -> acc + Array.length p.region.qubits | _ -> acc)
      0 t.outcomes
  in
  let working = Topology.num_working_qubits t.family.Family.graph in
  float_of_int used /. float_of_int (max 1 working)

let counts t =
  Array.fold_left
    (fun (p, d, f) o ->
       match o with
       | Placed _ -> (p + 1, d, f)
       | Deferred -> (p, d + 1, f)
       | Failed _ -> (p, d, f + 1))
    (0, 0, 0) t.outcomes

(* --- Solving and response plumbing ------------------------------------------ *)

let solve_placed ?trace ?(chain_break = Embedding.Vote) ~solver p =
  if p.region.block = 0 then
    ( [ ({ Embedding.logical = [||]; broken_chains = 0 }, 1) ],
      Sampler.response_of_reads Problem.empty [ [||] ] )
  else begin
    let compacted, old_of_new = Embedding.compact p.physical in
    let r = solver compacted in
    let reads =
      Trace.with_span_opt trace "unembed" (fun () ->
          let reads =
            Embedding.unembed_reads ~policy:chain_break ~old_of_new ~problem:p.physical
              p.embedding r.Sampler.samples
          in
          Trace.counter_opt trace "discarded-reads"
            (r.Sampler.num_reads - List.fold_left (fun acc (_, n) -> acc + n) 0 reads);
          reads)
    in
    (reads, r)
  end

let solve ?(num_threads = 1) ?chain_break ?deadline ~solver t =
  let n = Array.length t.problems in
  let results = Array.make n None in
  Parallel.run_tasks ~num_workers:num_threads n (fun i ->
      match t.outcomes.(i) with
      | Deferred | Failed _ -> ()
      | Placed p ->
        let deadline = Option.bind deadline (fun f -> f i) in
        let reads, r = solve_placed ?chain_break ~solver:(solver ~deadline) p in
        (* Each logical read repeats by its occurrence count, and energies
           re-evaluate against the job's own logical Hamiltonian. *)
        let response =
          List.concat_map
            (fun ((u : Embedding.unembedded), n) -> List.init n (fun _ -> u.Embedding.logical))
            reads
          |> Sampler.response_of_reads t.problems.(i) ~elapsed_seconds:r.Sampler.elapsed_seconds
               ~timed_out:r.Sampler.timed_out
        in
        results.(i) <- Some (i, response));
  Array.to_list results |> List.filter_map Fun.id
