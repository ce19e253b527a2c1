open Qac_ising
module Chimera = Qac_chimera.Chimera
module Topology = Qac_chimera.Topology
module Sampler = Qac_anneal.Sampler

type t = { chains : int array array }

let num_physical_qubits t =
  Array.fold_left (fun acc chain -> acc + Array.length chain) 0 t.chains

let max_chain_length t =
  Array.fold_left (fun acc chain -> max acc (Array.length chain)) 0 t.chains

(* Chain membership is one [owner] array over the qubits, and chain
   connectivity walks the graph's CSR rows in place: {!apply} re-verifies
   every cached embedding it places, so this runs once per served job. *)
let verify graph (p : Problem.t) t =
  let exception Invalid of string in
  let invalid fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt in
  let row_start = graph.Topology.row_start and col = graph.Topology.col in
  (* [owner.(q)]: the variable whose chain holds qubit [q], or -1. *)
  let owner = Array.make (Chimera.num_qubits graph) (-1) in
  let seen = Array.make (Array.length owner) false in
  let stack = Array.make (Array.length owner) 0 in
  try
    if Array.length t.chains <> p.Problem.num_vars then
      invalid "embedding has %d chains for %d variables" (Array.length t.chains)
        p.Problem.num_vars;
    (* Nonempty, in-range, working, disjoint. *)
    Array.iteri
      (fun v chain ->
         if Array.length chain = 0 then invalid "variable %d has an empty chain" v;
         Array.iter
           (fun q ->
              if not (Chimera.is_working graph q) then
                invalid "chain of %d uses broken/out-of-range qubit %d" v q;
              if owner.(q) >= 0 then invalid "qubit %d appears in two chains" q;
              owner.(q) <- v)
           chain)
      t.chains;
    (* Connectivity of each chain: a depth-first walk from its first qubit
       through the qubits it owns. *)
    Array.iteri
      (fun v chain ->
         let top = ref 1 and reached = ref 1 in
         stack.(0) <- chain.(0);
         seen.(chain.(0)) <- true;
         while !top > 0 do
           decr top;
           let q = stack.(!top) in
           for k = row_start.(q) to row_start.(q + 1) - 1 do
             let n = col.(k) in
             if owner.(n) = v && not seen.(n) then begin
               seen.(n) <- true;
               incr reached;
               stack.(!top) <- n;
               incr top
             end
           done
         done;
         if !reached <> Array.length chain then invalid "chain of variable %d is disconnected" v)
      t.chains;
    (* Every logical coupler has a physical edge. *)
    Array.iter
      (fun ((u, v), _) ->
         let found = ref false in
         Array.iter
           (fun qu ->
              for k = row_start.(qu) to row_start.(qu + 1) - 1 do
                if owner.(col.(k)) = v then found := true
              done)
           t.chains.(u);
         if not !found then invalid "no physical edge for logical coupler (%d, %d)" u v)
      p.Problem.couplers;
    Ok ()
  with Invalid msg -> Error msg

let default_chain_strength (p : Problem.t) =
  let m =
    Float.max (Problem.max_abs_h p)
      (Float.max (Float.abs (Problem.max_j p)) (Float.abs (Problem.min_j p)))
  in
  if m = 0.0 then 1.0 else 2.0 *. m

let apply ?chain_strength graph (p : Problem.t) t =
  (match verify graph p t with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Embedding.apply: " ^ msg));
  let strength =
    match chain_strength with
    | Some s -> s
    | None -> default_chain_strength p
  in
  let b = Problem.Builder.create ~num_vars:(Chimera.num_qubits graph) () in
  (* Linear terms: split across the chain. *)
  Array.iteri
    (fun v h ->
       if h <> 0.0 then begin
         let chain = t.chains.(v) in
         let share = h /. float_of_int (Array.length chain) in
         Array.iter (fun q -> Problem.Builder.add_h b q share) chain
       end)
    p.Problem.h;
  (* Quadratic terms: split across the available physical edges, added
     last edge first.  Plain loops: this runs once per served job. *)
  Array.iter
    (fun ((u, v), j) ->
       let cu = t.chains.(u) and cv = t.chains.(v) in
       let edges = ref 0 in
       for a = 0 to Array.length cu - 1 do
         for c = 0 to Array.length cv - 1 do
           if Chimera.adjacent graph cu.(a) cv.(c) then incr edges
         done
       done;
       let share = j /. float_of_int !edges in
       for a = Array.length cu - 1 downto 0 do
         for c = Array.length cv - 1 downto 0 do
           if Chimera.adjacent graph cu.(a) cv.(c) then Problem.Builder.add_j b cu.(a) cv.(c) share
         done
       done)
    p.Problem.couplers;
  (* Intra-chain ferromagnetic couplers on every internal edge. *)
  Array.iter
    (fun chain ->
       for i = 0 to Array.length chain - 1 do
         for k = i + 1 to Array.length chain - 1 do
           if Chimera.adjacent graph chain.(i) chain.(k) then
             Problem.Builder.add_j b chain.(i) chain.(k) (-.strength)
         done
       done)
    t.chains;
  let built = Problem.Builder.build b in
  if built.Problem.num_vars = Chimera.num_qubits graph then built
  else
    Problem.relabel built
      (Array.init built.Problem.num_vars (fun i -> i))
      ~num_vars:(Chimera.num_qubits graph)

type unembedded = {
  logical : Problem.spin array;
  broken_chains : int;
}

(* How broken chains (physical qubits of one logical variable disagreeing)
   resolve to a logical spin:
   - [Vote]: majority across the chain, first qubit breaking ties — the
     original behaviour, and the tie-breaker for every other policy.
   - [Discard]: resolves like [Vote] per read; [unembed_reads] drops reads
     whose [broken_chains] is non-zero (and falls back to the voted reads
     when every read would drop, so responses stay non-empty).
   - [Polish]: greedy-descend the physical configuration on the embedded
     problem first — the chain couplers pull broken chains back into
     agreement before the vote, so the vote mostly ratifies repaired
     chains. *)
type chain_break = Vote | Discard | Polish

let vote t physical =
  let broken = ref 0 in
  let logical =
    Array.map
      (fun chain ->
         let up = ref 0 in
         for k = 0 to Array.length chain - 1 do
           if physical.(chain.(k)) > 0 then incr up
         done;
         let up = !up in
         let len = Array.length chain in
         if up <> 0 && up <> len then incr broken;
         if 2 * up > len then 1
         else if 2 * up < len then -1
         else physical.(chain.(0)) (* tie: first qubit decides *))
      t.chains
  in
  { logical; broken_chains = !broken }

let unembed ?(policy = Vote) ?problem t physical =
  match (policy, problem) with
  | (Polish, Some (p : Problem.t)) when Array.length physical = p.Problem.num_vars ->
      let repaired = Qac_anneal.Greedy.local_minimum p physical in
      (* [broken_chains] reports the raw read's breaks (the diagnostic the
         caller wants), while the logical spins come from the repaired
         configuration. *)
      { (vote t repaired) with broken_chains = (vote t physical).broken_chains }
  | _ -> vote t physical

(* The one chain-break resolution step every solve path shares: expand each
   sample to the full physical index space (unused qubits +1), unembed it
   under [policy] once per distinct sample, and apply [Discard]'s drop. *)
let unembed_reads ?(policy = Vote) ?old_of_new ~problem t samples =
  let expand =
    match old_of_new with
    | None -> Fun.id
    | Some old_of_new ->
      (* One buffer for every sample: each writes the same positions, the
         rest stay +1, and [unembed] keeps no reference to it. *)
      let full = Array.make problem.Problem.num_vars 1 in
      fun spins ->
        Array.iteri (fun k old -> full.(old) <- spins.(k)) old_of_new;
        full
  in
  let resolved =
    List.map
      (fun (s : Sampler.sample) ->
         (unembed ~policy ~problem t (expand s.Sampler.spins), s.Sampler.num_occurrences))
      samples
  in
  match policy with
  | Discard ->
    let clean = List.filter (fun (u, _) -> u.broken_chains = 0) resolved in
    if clean = [] then resolved else clean
  | Vote | Polish -> resolved

let compact (p : Problem.t) =
  let used = Array.make p.Problem.num_vars false in
  Array.iteri (fun i h -> if h <> 0.0 then used.(i) <- true) p.Problem.h;
  Array.iter
    (fun ((i, j), _) ->
       used.(i) <- true;
       used.(j) <- true)
    p.Problem.couplers;
  let new_of_old = Array.make p.Problem.num_vars (-1) in
  let old_of_new = ref [] in
  let count = ref 0 in
  Array.iteri
    (fun i u ->
       if u then begin
         new_of_old.(i) <- !count;
         old_of_new := i :: !old_of_new;
         incr count
       end)
    used;
  let old_of_new = Array.of_list (List.rev !old_of_new) in
  let map = Array.map (fun m -> if m >= 0 then m else 0) new_of_old in
  (* relabel ignores coefficients of unused variables (they have none). *)
  (Problem.relabel p map ~num_vars:!count, old_of_new)
