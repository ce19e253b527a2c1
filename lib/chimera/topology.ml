type t = {
  name : string;
  params : (string * int) list;
  row_start : int array;
  col : int array;
  working : bool array;
  num_edges : int;
}

(* Edges are deduplicated through a Hashtbl keyed on the normalized pair, so
   building a topology is O(V + E) regardless of degree; the old per-edge
   [List.mem] scan made large Pegasus fabrics quadratic to construct. *)
let create ~name ~params ~num_qubits ~edges ?(broken = []) () =
  if num_qubits < 0 then invalid_arg "Topology.create: negative qubit count";
  let working = Array.make num_qubits true in
  List.iter
    (fun q ->
       if q < 0 || q >= num_qubits then
         invalid_arg "Topology.create: broken qubit out of range";
       working.(q) <- false)
    broken;
  let seen = Hashtbl.create (List.length edges * 2) in
  let degree = Array.make num_qubits 0 in
  let kept = ref [] in
  let num_edges = ref 0 in
  List.iter
    (fun (a, b) ->
       if a < 0 || a >= num_qubits || b < 0 || b >= num_qubits then
         invalid_arg "Topology.create: edge endpoint out of range";
       if a = b then invalid_arg "Topology.create: self-loop";
       if working.(a) && working.(b) then begin
         let key = if a < b then (a, b) else (b, a) in
         if not (Hashtbl.mem seen key) then begin
           Hashtbl.replace seen key ();
           kept := key :: !kept;
           degree.(a) <- degree.(a) + 1;
           degree.(b) <- degree.(b) + 1;
           incr num_edges
         end
       end)
    edges;
  let row_start = Array.make (num_qubits + 1) 0 in
  for q = 0 to num_qubits - 1 do
    row_start.(q + 1) <- row_start.(q) + degree.(q)
  done;
  let col = Array.make row_start.(num_qubits) 0 in
  let cursor = Array.sub row_start 0 num_qubits in
  List.iter
    (fun (a, b) ->
       col.(cursor.(a)) <- b;
       cursor.(a) <- cursor.(a) + 1;
       col.(cursor.(b)) <- a;
       cursor.(b) <- cursor.(b) + 1)
    !kept;
  (* Sort each row so [adjacent] can binary-search and iteration order is a
     canonical function of the edge set, not of input order. *)
  for q = 0 to num_qubits - 1 do
    let lo = row_start.(q) and hi = row_start.(q + 1) in
    let sub = Array.sub col lo (hi - lo) in
    Array.sort compare sub;
    Array.blit sub 0 col lo (hi - lo)
  done;
  { name; params; row_start; col; working; num_edges = !num_edges }

let num_qubits t = Array.length t.working

let num_working_qubits t =
  Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 t.working

let is_working t q = q >= 0 && q < num_qubits t && t.working.(q)

let degree t q =
  if q < 0 || q >= num_qubits t then invalid_arg "Topology.degree: out of range";
  t.row_start.(q + 1) - t.row_start.(q)

let iter_neighbors t q f =
  if q < 0 || q >= num_qubits t then invalid_arg "Topology.iter_neighbors: out of range";
  for k = t.row_start.(q) to t.row_start.(q + 1) - 1 do
    f (Array.unsafe_get t.col k)
  done

let neighbors t q =
  if q < 0 || q >= num_qubits t then invalid_arg "Topology.neighbors: out of range";
  List.init (degree t q) (fun i -> t.col.(t.row_start.(q) + i))

(* Rows are sorted, so membership is a binary search: a loop, where a
   local recursive function would allocate its closure on every call. *)
let adjacent t a b =
  if a < 0 || a >= num_qubits t then invalid_arg "Topology.adjacent: out of range";
  let lo = ref t.row_start.(a) and hi = ref t.row_start.(a + 1) and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.col.(mid) in
    if v = b then found := true else if v < b then lo := mid + 1 else hi := mid
  done;
  !found

let edges t =
  let acc = ref [] in
  for q = num_qubits t - 1 downto 0 do
    for k = t.row_start.(q + 1) - 1 downto t.row_start.(q) do
      let p = t.col.(k) in
      if q < p then acc := (q, p) :: !acc
    done
  done;
  !acc

let num_edges t = t.num_edges

let max_degree t =
  let best = ref 0 in
  for q = 0 to num_qubits t - 1 do
    best := max !best (degree t q)
  done;
  !best

let param t name = List.assoc name t.params

let is_bipartite t =
  let color = Array.make (num_qubits t) (-1) in
  let ok = ref true in
  for start = 0 to num_qubits t - 1 do
    if color.(start) < 0 && t.working.(start) then begin
      color.(start) <- 0;
      let queue = Queue.create () in
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let q = Queue.pop queue in
        iter_neighbors t q (fun n ->
            if color.(n) < 0 then begin
              color.(n) <- 1 - color.(q);
              Queue.add n queue
            end
            else if color.(n) = color.(q) then ok := false)
      done
    end
  done;
  !ok
