module Topology = Qac_chimera.Topology
module Rng = Qac_anneal.Rng
module Parallel = Qac_anneal.Parallel
open Qac_ising

type params = {
  tries : int;
  max_passes : int;
  alpha : float;
  seed : int;
  num_threads : int;
}

(* Per-try success on C8-class netlists is ~15-20% (for the old router
   too), so the old default of 8 tries failed a third of the seeds.  The
   CSR/scratch router is >3x faster per try, so 32 restarts cost about what
   8 used to while dropping the per-seed failure rate to well under 1% --
   and the best-of-32 embedding is usually smaller. *)
let default_params =
  { tries = 32; max_passes = 24; alpha = 4.0; seed = 0; num_threads = 1 }

(* Degree-15 fabrics (Pegasus) route in far fewer attempts than degree-6
   Chimera: each Dijkstra has 2.5x the branching, so chains land near their
   neighbors on the first few tries and the extra restarts just burn the
   larger per-try cost.  Halving both knobs keeps Pegasus embedding latency
   comparable to Chimera's while staying deterministic per graph. *)
let params_for graph =
  if Topology.max_degree graph >= 15 then
    { default_params with tries = 16; max_passes = 16 }
  else default_params

exception Route_failed
(* A variable could not reach every embedded neighbor chain (disconnected
   region, or every path blocked); the current try is abandoned. *)

(* One embedded neighbor's multi-source Dijkstra.  Each search owns its heap,
   so the k searches of a route can advance in lockstep and stop together
   once the best root is known (see [find_root]).  A run refills [dist]
   with infinity (one vectorized [Array.fill]) and overwrites [parent] as
   it relaxes.  A qubit is a multi-source *source* iff [parent.(q) = -1]
   after it is settled — sources are seeded that way and every relaxed
   qubit records a real predecessor, so no separate source mask is needed
   in the hot loop.  [parent] of a qubit this run has not settled is stale:
   only settled qubits may be walked. *)
type search = {
  heap : Heap.t;
  dist : float array;
  parent : int array;
}

let make_search n =
  let heap = Heap.create () in
  Heap.ensure heap n;
  { heap; dist = Array.make n infinity; parent = Array.make n (-1) }

type state = {
  graph : Topology.t;
  num_qubits : int;
  (* CSR aliases for the unsafe inner-loop walks. *)
  row_start : int array;
  col : int array;
  working : bool array;
  logical_neighbors : int array array;  (* deduped, sorted *)
  chains : int list array;  (* physical qubits per logical variable *)
  usage : int array;  (* how many chains cover each qubit *)
  cost : float array;
      (* qubit_cost memoized per route: usage is constant from the moment the
         old chain is ripped until the new chain is committed, so the
         alpha^usage * jitter weight of every qubit can be computed once per
         route instead of per Dijkstra pop (libm [pow] dominates otherwise) *)
  mutable min_cost : float;  (* the lowest entry of [cost] *)
  mutable searches : search array;  (* one per embedded neighbor, reused *)
  mutable front : float array;  (* per search: its heap's minimum, or infinity *)
  settled : int array;  (* per qubit: how many of the route's searches settled it *)
  in_chain : bool array;  (* chain membership mask; always cleared after use *)
  visit_stamp : int array;  (* trim DFS visited mask, epoch-invalidated *)
  mutable visit_epoch : int;
  dfs_stack : int array;
  mutable alpha : float;
      (* overuse penalty base; escalated every refinement pass so stable
         overlap deadlocks (cheap shared qubit vs. many detours) eventually
         break *)
}

let make_state graph logical_neighbors alpha =
  let n = Topology.num_qubits graph in
  { graph;
    num_qubits = n;
    row_start = graph.Topology.row_start;
    col = graph.Topology.col;
    working = graph.Topology.working;
    logical_neighbors;
    chains = Array.make (Array.length logical_neighbors) [];
    usage = Array.make n 0;
    cost = Array.make n 1.0;
    min_cost = 1.0;
    searches = [||];
    front = [||];
    settled = Array.make n 0;
    in_chain = Array.make n false;
    visit_stamp = Array.make n 0;
    visit_epoch = 0;
    dfs_stack = Array.make n 0;
    alpha }

let ensure_searches st k =
  let have = Array.length st.searches in
  if have < k then begin
    st.searches <-
      Array.append st.searches
        (Array.init (k - have) (fun _ -> make_search st.num_qubits));
    st.front <- Array.make k infinity
  end

(* Fill [st.cost] for this route: ~1 (+ jitter) for a free qubit,
   alpha^usage otherwise, with per-route jitter to diversify tie-breaking.
   alpha^u is looked up from a 9-entry table rather than recomputed.  The
   lowest cost is kept for the router's stop rule. *)
let fill_costs st rng =
  let pow = Array.make 9 1.0 in
  for u = 1 to 8 do
    pow.(u) <- pow.(u - 1) *. st.alpha
  done;
  let usage = st.usage and cost = st.cost in
  let lowest = ref infinity in
  for q = 0 to st.num_qubits - 1 do
    let jitter = 1.0 +. (0.5 *. Rng.float rng) in
    let u = Array.unsafe_get usage q in
    let u = if u > 8 then 8 else u in
    let c = Array.unsafe_get pow u *. jitter in
    if c < !lowest then lowest := c;
    Array.unsafe_set cost q c
  done;
  st.min_cost <- !lowest

let qubit_cost st q = Array.unsafe_get st.cost q

(* Seed search [s] with the qubits of one neighbor chain.
   [s.dist.(q)] will be the cheapest cost of the *intermediate* qubits on a
   path from the chain to [q] (excluding both the chain's qubits and [q]
   itself), so a candidate root's own weight can be counted exactly once by
   the caller. *)
let start_search st s chain =
  let dist = s.dist and parent = s.parent and heap = s.heap in
  Heap.clear heap;
  Array.fill dist 0 st.num_qubits infinity;
  List.iter
    (fun q ->
       dist.(q) <- 0.0;
       parent.(q) <- -1;
       Heap.push heap 0.0 q)
    chain

(* Settle the head of [s]'s non-empty heap and relax its edges; returns the
   settled qubit. *)
let settle_next st s =
  let dist = s.dist and parent = s.parent and heap = s.heap in
  let row_start = st.row_start and col = st.col in
  let d = Heap.min_priority heap in
  let q = Heap.min_payload heap in
  Heap.remove_min heap;
  (* Decrease-key heap: every pop is settled, never stale.  Stepping past
     [q] costs its weight, unless [q] is a source (already paid for). *)
  let step = if Array.unsafe_get parent q < 0 then 0.0 else qubit_cost st q in
  let nd = d +. step in
  for k = Array.unsafe_get row_start q to Array.unsafe_get row_start (q + 1) - 1 do
    let n = Array.unsafe_get col k in
    (* Sources sit at distance 0, so they can never be relaxed: no
       separate source test is needed. *)
    if nd < Array.unsafe_get dist n -. 1e-12 then begin
      Array.unsafe_set dist n nd;
      Array.unsafe_set parent n q;
      Heap.push heap nd n
    end
  done;
  q

let frontier s = if Heap.is_empty s.heap then infinity else Heap.min_priority s.heap

(* The root minimizing score(q) = sum_i dist_i(q) + cost(q) over working
   qubits reached by all k searches, ties to the lowest index, and that
   score.  The searches advance in lockstep: each step settles one qubit of
   the search whose frontier is lowest, and a qubit is scored once the last
   search settles it.  The route stops as soon as the best score is
   strictly below every frontier plus the lowest qubit cost: a qubit still
   unsettled in some search j will have dist_j at least j's frontier, the
   other dists are non-negative and its own cost is at least [min_cost], so
   its score (a rounded sum of those, and rounding is monotone) cannot beat
   or tie the best.  The result is therefore exactly what a full search
   followed by an ascending scan would choose.  Each search pops and pushes
   in the order a full run would, only truncated, so [dist] and [parent] of
   every settled qubit are final.  Raises [Route_failed] when the heaps run
   dry with no root. *)
let find_root st k =
  let searches = st.searches and front = st.front and settled = st.settled in
  Array.fill settled 0 st.num_qubits 0;
  for i = 0 to k - 1 do
    front.(i) <- frontier searches.(i)
  done;
  let best_root = ref (-1) in
  let best_score = ref infinity in
  let running = ref true in
  while !running do
    let j = ref 0 in
    for i = 1 to k - 1 do
      if Array.unsafe_get front i < Array.unsafe_get front !j then j := i
    done;
    let lowest = Array.unsafe_get front !j in
    if lowest = infinity || !best_score < lowest +. st.min_cost then running := false
    else begin
      let s = Array.unsafe_get searches !j in
      let q = settle_next st s in
      Array.unsafe_set front !j (frontier s);
      let c = Array.unsafe_get settled q + 1 in
      Array.unsafe_set settled q c;
      if c = k && Array.unsafe_get st.working q then begin
        let total = ref 0.0 in
        for i = 0 to k - 1 do
          total := !total +. Array.unsafe_get (Array.unsafe_get searches i).dist q
        done;
        if !total < infinity then begin
          let score = !total +. qubit_cost st q in
          if score < !best_score || (score = !best_score && q < !best_root) then begin
            best_score := score;
            best_root := q
          end
        end
      end
    end
  done;
  if !best_root < 0 then raise Route_failed;
  (!best_root, !best_score)

(* Route a chain through the searches seeded from [chains] (one per
   embedded neighbor): the root from [find_root], then the parents walked
   back from it toward each neighbor chain, adding the intermediate qubits
   (sources themselves stay with their owner).  Returns the root, its score
   and the chain's qubits, most recently added first. *)
let root_and_paths st chains =
  let k = Array.length chains in
  ensure_searches st k;
  Array.iteri (fun i chain -> start_search st st.searches.(i) chain) chains;
  let root, score = find_root st k in
  let members = ref [] in
  let add q =
    if not st.in_chain.(q) then begin
      st.in_chain.(q) <- true;
      members := q :: !members
    end
  in
  add root;
  for i = 0 to k - 1 do
    let s = st.searches.(i) in
    (* Stop on reaching the neighbor chain: its qubits have parent -1. *)
    let rec walk q =
      if s.parent.(q) >= 0 then begin
        add q;
        walk s.parent.(q)
      end
    in
    walk root
  done;
  List.iter (fun q -> st.in_chain.(q) <- false) !members;
  (root, score, !members)

(* The embedded logical neighbors of [v], in ascending variable order. *)
let embedded_neighbors st v =
  let ns = st.logical_neighbors.(v) in
  let acc = ref [] in
  for i = Array.length ns - 1 downto 0 do
    let u = ns.(i) in
    if u <> v && st.chains.(u) <> [] then acc := u :: !acc
  done;
  !acc

(* Rebuild the chain of [v] from scratch. *)
let route_chain st rng v =
  (* Rip the old chain, then weight the qubits as the route will see them. *)
  List.iter (fun q -> st.usage.(q) <- st.usage.(q) - 1) st.chains.(v);
  st.chains.(v) <- [];
  fill_costs st rng;
  let embedded = embedded_neighbors st v in
  if embedded = [] then begin
    (* No constraints yet: claim a random least-used working qubit. *)
    let best_usage = ref max_int in
    let count = ref 0 in
    for q = 0 to st.num_qubits - 1 do
      if st.working.(q) then
        if st.usage.(q) < !best_usage then begin
          best_usage := st.usage.(q);
          count := 1
        end
        else if st.usage.(q) = !best_usage then incr count
    done;
    let target = Rng.int rng !count in
    let pick = ref (-1) in
    let seen = ref 0 in
    for q = 0 to st.num_qubits - 1 do
      if !pick < 0 && st.working.(q) && st.usage.(q) = !best_usage then begin
        if !seen = target then pick := q;
        incr seen
      end
    done;
    st.chains.(v) <- [ !pick ];
    st.usage.(!pick) <- st.usage.(!pick) + 1
  end
  else begin
    let chains = Array.of_list (List.map (fun u -> st.chains.(u)) embedded) in
    let _, _, members = root_and_paths st chains in
    st.chains.(v) <- members;
    List.iter (fun q -> st.usage.(q) <- st.usage.(q) + 1) members
  end

(* Chain connectivity restricted to the [in_chain] mask: iterative DFS from
   [first], counting reachable members. *)
let connected_members st first =
  st.visit_epoch <- st.visit_epoch + 1;
  let epoch = st.visit_epoch in
  let stack = st.dfs_stack in
  let row_start = st.row_start and col = st.col in
  stack.(0) <- first;
  st.visit_stamp.(first) <- epoch;
  let top = ref 1 in
  let visited = ref 1 in
  while !top > 0 do
    decr top;
    let q = stack.(!top) in
    for k = row_start.(q) to row_start.(q + 1) - 1 do
      let n = Array.unsafe_get col k in
      if st.in_chain.(n) && st.visit_stamp.(n) <> epoch then begin
        st.visit_stamp.(n) <- epoch;
        incr visited;
        stack.(!top) <- n;
        incr top
      end
    done
  done;
  !visited

let touches_chain st q =
  let found = ref false in
  let lo = st.row_start.(q) and hi = st.row_start.(q + 1) in
  let k = ref lo in
  while (not !found) && !k < hi do
    if st.in_chain.(st.col.(!k)) then found := true;
    incr k
  done;
  !found

(* Remove redundant qubits from a freshly routed chain: a member can go if
   the chain stays connected and every embedded logical neighbor is still
   reachable through some physical edge.  Union-of-shortest-paths routing
   leaves such slack whenever paths to different neighbors diverge. *)
let trim_chain st v =
  let members = ref st.chains.(v) in
  let member_count = ref 0 in
  List.iter
    (fun q ->
       st.in_chain.(q) <- true;
       incr member_count)
    !members;
  let embedded = embedded_neighbors st v in
  let still_valid () =
    match !members with
    | [] -> false
    | _ ->
      let first =
        (* Any member still in the chain anchors the connectivity DFS. *)
        List.find (fun q -> st.in_chain.(q)) !members
      in
      connected_members st first = !member_count
      && List.for_all
           (fun u -> List.exists (fun qu -> touches_chain st qu) st.chains.(u))
           embedded
  in
  let removed_any = ref true in
  while !removed_any do
    removed_any := false;
    let candidates = Array.of_list !members in
    (* Prefer dropping overused qubits, then high-cost ones. *)
    Array.sort
      (fun a b ->
         let c = compare (st.usage.(b) : int) st.usage.(a) in
         if c <> 0 then c else compare (b : int) a)
      candidates;
    Array.iter
      (fun q ->
         if !member_count > 1 then begin
           st.in_chain.(q) <- false;
           decr member_count;
           if still_valid () then begin
             st.usage.(q) <- st.usage.(q) - 1;
             removed_any := true
           end
           else begin
             st.in_chain.(q) <- true;
             incr member_count
           end
         end)
      candidates;
    members := List.filter (fun q -> st.in_chain.(q)) !members
  done;
  List.iter (fun q -> st.in_chain.(q) <- false) !members;
  st.chains.(v) <- !members

let route_and_trim st rng v =
  route_chain st rng v;
  trim_chain st v

let overfull st =
  let count = ref 0 in
  Array.iter (fun u -> if u > 1 then incr count) st.usage;
  !count

let total_chain_length st =
  Array.fold_left (fun acc chain -> acc + List.length chain) 0 st.chains

(* One independent restart.  Entirely a function of [try_seed] (plus the
   graph/problem), so tries can run on any domain in any order: the caller
   recombines per-try results by (total chain length, try index), which
   reproduces the sequential earliest-minimum selection exactly. *)
let run_try ~graph ~logical_neighbors ~(params : params) ~try_seed =
  let n = Array.length logical_neighbors in
  let try_rng = Rng.create try_seed in
  let st = make_state graph logical_neighbors params.alpha in
  let best = ref None in
  let consider () =
    if overfull st = 0 then begin
      let length = total_chain_length st in
      match !best with
      | Some (best_length, _) when best_length <= length -> ()
      | _ ->
        best :=
          Some
            ( length,
              { Embedding.chains =
                  Array.map (fun chain -> Array.of_list (List.sort compare chain)) st.chains
              } )
    end
  in
  let order = Array.init n (fun i -> i) in
  Rng.shuffle try_rng order;
  (try
     (* Initial placement pass. *)
     Array.iter (fun v -> route_and_trim st try_rng v) order;
     (* Refinement passes, escalating the overuse penalty so stable
        overlap deadlocks eventually break. *)
     for pass = 1 to params.max_passes do
       st.alpha <- Float.min 1e6 (params.alpha *. (2.0 ** float_of_int pass));
       Rng.shuffle try_rng order;
       Array.iter (fun v -> route_and_trim st try_rng v) order;
       if overfull st = 0 then begin
         consider ();
         (* Shortening passes: keep rerouting with overlap effectively
            forbidden, keeping the best (shortest) valid embedding. *)
         st.alpha <- 1e6;
         for _shorten = 1 to 3 do
           Rng.shuffle try_rng order;
           Array.iter (fun v -> route_and_trim st try_rng v) order;
           if overfull st = 0 then consider ()
         done;
         raise Exit
       end
     done
   with
   | Exit -> ()
   | Route_failed -> ());
  consider ();
  !best

let find ?(params = default_params) graph (p : Problem.t) =
  (* Qubit costs are alpha^usage times a jitter in [1, 1.5): Dijkstra and
     the router's stop rule both need them positive. *)
  if not (Float.is_finite params.alpha && params.alpha > 0.0) then
    invalid_arg "Cmr.find: alpha must be finite and positive";
  if params.max_passes < 0 then invalid_arg "Cmr.find: max_passes must be non-negative";
  let n = p.Problem.num_vars in
  if n = 0 then Some { Embedding.chains = [||] }
  else begin
    let logical_neighbors =
      let tmp = Array.make n [] in
      Array.iter
        (fun ((u, v), _) ->
           tmp.(u) <- v :: tmp.(u);
           tmp.(v) <- u :: tmp.(v))
        p.Problem.couplers;
      (* Dedup so duplicate couplers between one variable pair cannot
         trigger a redundant multi-source Dijkstra per route. *)
      Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) tmp
    in
    let tries = max 0 params.tries in
    (* Seeds derive sequentially from the base seed before any domain runs,
       so the set of tries — and therefore the result — is identical at
       every thread count. *)
    let rng = Rng.create params.seed in
    let try_seeds = Array.init tries (fun _ -> Rng.next_seed rng) in
    let results = Array.make tries None in
    Parallel.run_tasks ~num_workers:params.num_threads tries (fun i ->
        results.(i) <- run_try ~graph ~logical_neighbors ~params ~try_seed:try_seeds.(i));
    (* Deterministic recombination: minimum total chain length, ties broken
       by the lowest try index (strict [<] keeps the earliest minimum). *)
    let best = ref None in
    Array.iter
      (fun r ->
         match (r, !best) with
         | Some (len, _), Some (best_len, _) when len < best_len -> best := r
         | Some _, None -> best := r
         | _ -> ())
      results;
    Option.map snd !best
  end

module Internal = struct
  exception Route_failed = Route_failed

  let route graph ~cost chains =
    let st = make_state graph [||] 1.0 in
    Array.blit cost 0 st.cost 0 st.num_qubits;
    st.min_cost <- Array.fold_left Float.min infinity cost;
    root_and_paths st chains
end
