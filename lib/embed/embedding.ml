open Qac_ising
module Chimera = Qac_chimera.Chimera
module Sampler = Qac_anneal.Sampler

type t = { chains : int array array }

let num_physical_qubits t =
  Array.fold_left (fun acc chain -> acc + Array.length chain) 0 t.chains

let max_chain_length t =
  Array.fold_left (fun acc chain -> max acc (Array.length chain)) 0 t.chains

let verify graph (p : Problem.t) t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    if Array.length t.chains <> p.Problem.num_vars then
      Error
        (Printf.sprintf "embedding has %d chains for %d variables"
           (Array.length t.chains) p.Problem.num_vars)
    else Ok ()
  in
  (* Nonempty, in-range, working, disjoint. *)
  let seen = Hashtbl.create 64 in
  let* () =
    let rec check v =
      if v >= Array.length t.chains then Ok ()
      else if Array.length t.chains.(v) = 0 then
        Error (Printf.sprintf "variable %d has an empty chain" v)
      else begin
        let bad =
          Array.fold_left
            (fun acc q ->
               match acc with
               | Some _ -> acc
               | None ->
                 if not (Chimera.is_working graph q) then
                   Some (Printf.sprintf "chain of %d uses broken/out-of-range qubit %d" v q)
                 else if Hashtbl.mem seen q then
                   Some (Printf.sprintf "qubit %d appears in two chains" q)
                 else begin
                   Hashtbl.replace seen q v;
                   None
                 end)
            None t.chains.(v)
        in
        match bad with
        | Some msg -> Error msg
        | None -> check (v + 1)
      end
    in
    check 0
  in
  (* Connectivity of each chain. *)
  let* () =
    let rec check v =
      if v >= Array.length t.chains then Ok ()
      else begin
        let chain = t.chains.(v) in
        let members = Hashtbl.create 8 in
        Array.iter (fun q -> Hashtbl.replace members q ()) chain;
        let visited = Hashtbl.create 8 in
        let rec dfs q =
          if not (Hashtbl.mem visited q) then begin
            Hashtbl.replace visited q ();
            List.iter (fun n -> if Hashtbl.mem members n then dfs n) (Chimera.neighbors graph q)
          end
        in
        dfs chain.(0);
        if Hashtbl.length visited <> Array.length chain then
          Error (Printf.sprintf "chain of variable %d is disconnected" v)
        else check (v + 1)
      end
    in
    check 0
  in
  (* Every logical coupler has a physical edge. *)
  let has_edge u v =
    Array.exists
      (fun qu -> Array.exists (fun qv -> Chimera.adjacent graph qu qv) t.chains.(v))
      t.chains.(u)
  in
  Array.fold_left
    (fun acc ((u, v), _) ->
       let* () = acc in
       if has_edge u v then Ok ()
       else Error (Printf.sprintf "no physical edge for logical coupler (%d, %d)" u v))
    (Ok ()) p.Problem.couplers

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
  (* Quadratic terms: split across the available physical edges. *)
  Array.iter
    (fun ((u, v), j) ->
       let edges = ref [] in
       Array.iter
         (fun qu ->
            Array.iter
              (fun qv -> if Chimera.adjacent graph qu qv then edges := (qu, qv) :: !edges)
              t.chains.(v))
         t.chains.(u);
       let share = j /. float_of_int (List.length !edges) in
       List.iter (fun (qu, qv) -> Problem.Builder.add_j b qu qv share) !edges)
    p.Problem.couplers;
  (* Intra-chain ferromagnetic couplers on every internal edge. *)
  Array.iter
    (fun chain ->
       Array.iteri
         (fun i qi ->
            Array.iteri
              (fun k qk ->
                 if i < k && Chimera.adjacent graph qi qk then
                   Problem.Builder.add_j b qi qk (-.strength))
              chain)
         chain)
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
         let up = Array.fold_left (fun acc q -> if physical.(q) > 0 then acc + 1 else acc) 0 chain in
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
  let resolved =
    List.map
      (fun (s : Sampler.sample) ->
         let full =
           match old_of_new with
           | None -> s.Sampler.spins
           | Some old_of_new ->
             let full = Array.make problem.Problem.num_vars 1 in
             Array.iteri (fun k old -> full.(old) <- s.Sampler.spins.(k)) old_of_new;
             full
         in
         (unembed ~policy ~problem t full, s.Sampler.num_occurrences))
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
