(** Topology families (see family.mli for the contract). *)

type t = {
  graph : Topology.t;
  family : string;
  rows : int;
  cols : int;
  max_block : int;
  clean : bool array array;
  footprint : int -> int;
  block_capacity : int -> int;
  build_local : int -> Topology.t;
  block_qubits : r0:int -> c0:int -> block:int -> int array;
  tile_of_qubit : int -> int * int;
}

(* Every local fabric is a pure function of [k], and a [Topology.t] is never
   mutated after construction, so each is built on first use and shared
   from then on.  Tiler ladders call [build_local] from
   [Parallel.run_tasks] workers, hence the mutex; building under it means
   concurrent first calls for one [k] still see a single value. *)
let memoize build =
  let mutex = Mutex.create () in
  let built = Hashtbl.create 8 in
  fun k ->
    Mutex.protect mutex (fun () ->
        match Hashtbl.find_opt built k with
        | Some g -> g
        | None ->
          let g = build k in
          Hashtbl.add built k g;
          g)

(* --- Chimera ---------------------------------------------------------------- *)

(* Cells with every qubit working; broken qubits knock their whole cell out
   of the pool (that is how the tiler honors hardware drop-out while keeping
   blocks isomorphic to pristine local Chimeras). *)
let chimera_clean graph ~m ~shore =
  Array.init m (fun r ->
      Array.init m (fun c ->
          let base = 2 * shore * ((r * m) + c) in
          let ok = ref true in
          for w = 0 to (2 * shore) - 1 do
            if not (Topology.is_working graph (base + w)) then ok := false
          done;
          !ok))

(* Global qubit ids of the k x k block at (r0, c0), in local-index order:
   slot [l] is the qubit playing the role of qubit [l] of the local C_k.
   Both numberings are [2*shore*cell + within], so only the cell translates. *)
let chimera_block_qubits ~m ~shore ~r0 ~c0 ~block =
  Array.init (2 * shore * block * block) (fun l ->
      let cell = l / (2 * shore) in
      let within = l mod (2 * shore) in
      let i = cell / block and j = cell mod block in
      (2 * shore * (((r0 + i) * m) + c0 + j)) + within)

let chimera graph =
  let m = Topology.param graph "m" and shore = Topology.param graph "shore" in
  { graph;
    family = "chimera";
    rows = m;
    cols = m;
    max_block = m;
    clean = chimera_clean graph ~m ~shore;
    footprint = (fun k -> k);
    block_capacity = (fun k -> 2 * shore * k * k);
    build_local = memoize (fun k -> Chimera.create ~shore k);
    block_qubits = (fun ~r0 ~c0 ~block -> chimera_block_qubits ~m ~shore ~r0 ~c0 ~block);
    tile_of_qubit =
      (fun q ->
         let cell = q / (2 * shore) in
         (cell / m, cell mod m)) }

(* --- Pegasus ---------------------------------------------------------------- *)

(* Tile (r, c) of a P_m holds the 12 vertical segments (0, w=c, *, z=r) plus
   the 12 horizontal segments (1, w=r, *, z=c) — the segments whose
   perpendicular offset and parallel position meet at grid square (r, c).
   Because z < m-1, boundary tiles are partial (row m-1 has no verticals,
   column m-1 no horizontals) and tile (m-1, m-1) is empty; together the
   tiles partition all 24 m (m-1) qubits.

   A k-block at origin (r0, c0) is the image of a local P_{k+1} under the
   coordinate translation
     vertical   (0, w, t, z) -> (0, w + c0, t, z + r0)
     horizontal (1, w, t, z) -> (1, w + r0, t, z + c0)
   which shifts every segment by a multiple of 12 in each axis and therefore
   preserves the crossing geometry exactly: every local coupler (internal,
   external, odd) exists between the image qubits.  The block's qubits live
   in the (k+1) x (k+1) tile square at (r0, c0) — adjacent blocks share a
   boundary offset column, so the footprint over-reserves one tile row and
   column relative to the local size, keeping placed blocks disjoint.

   The idealized node set includes boundary segments that cross nothing;
   {!Pegasus.create} marks them broken ("fabric trimming", 8 (m-1) qubits).
   Local trimming is at least as aggressive as the global one restricted to
   the window (a locally connected qubit maps onto a globally connected
   one), so a clean tile need only demand that no {e additional} qubits are
   broken beyond the pristine fabric's own trimming. *)

let pegasus_clean graph ~m ~pristine =
  let tile_ok r c =
    let ok = ref true in
    let check coords =
      let q = Pegasus.qubit_of_coords ~m coords in
      if Topology.is_working pristine q && not (Topology.is_working graph q) then
        ok := false
    in
    for track = 0 to 11 do
      if r <= m - 2 then
        check { Pegasus.orientation = 0; offset = c; track; position = r };
      if c <= m - 2 then
        check { Pegasus.orientation = 1; offset = r; track; position = c }
    done;
    !ok
  in
  Array.init m (fun r -> Array.init m (fun c -> tile_ok r c))

let pegasus graph =
  let m = Pegasus.size graph in
  let vertical_shifts = Pegasus.vertical_shifts graph in
  let horizontal_shifts = Pegasus.horizontal_shifts graph in
  let build_local =
    memoize (fun k -> Pegasus.create ~vertical_shifts ~horizontal_shifts (k + 1))
  in
  (* The pristine P_m is the largest local fabric, so it joins the memo. *)
  let pristine = build_local (m - 1) in
  { graph;
    family = "pegasus";
    rows = m;
    cols = m;
    max_block = m - 1;
    clean = pegasus_clean graph ~m ~pristine;
    footprint = (fun k -> k + 1);
    (* Working qubits of a pristine local P_{k+1}: 24 (k+1) k minus the
       8 k trimmed boundary segments.  Exact for the default shift lists; a
       (close) upper bound otherwise — only a ladder starting point. *)
    block_capacity = (fun k -> 8 * k * ((3 * k) + 2));
    build_local;
    block_qubits =
      (fun ~r0 ~c0 ~block ->
         let local_m = block + 1 in
         Array.init (2 * local_m * 12 * (local_m - 1)) (fun l ->
             let c = Pegasus.coords_of_qubit ~m:local_m l in
             if c.Pegasus.orientation = 0 then
               Pegasus.qubit_of_coords ~m
                 { c with
                   Pegasus.offset = c.Pegasus.offset + c0;
                   position = c.Pegasus.position + r0 }
             else
               Pegasus.qubit_of_coords ~m
                 { c with
                   Pegasus.offset = c.Pegasus.offset + r0;
                   position = c.Pegasus.position + c0 }));
    tile_of_qubit =
      (fun q ->
         let c = Pegasus.coords graph q in
         if c.Pegasus.orientation = 0 then (c.Pegasus.position, c.Pegasus.offset)
         else (c.Pegasus.offset, c.Pegasus.position)) }

(* --- Dispatch --------------------------------------------------------------- *)

let is_pegasus graph =
  let name = graph.Topology.name in
  String.length name >= 8 && String.sub name 0 8 = "pegasus-"

let of_topology graph =
  match Topology.param graph "shore" with
  | _ -> chimera graph
  | exception Not_found ->
    if is_pegasus graph then pegasus graph
    else
      invalid_arg
        (Printf.sprintf "Family.of_topology: %s is not a known topology family"
           graph.Topology.name)

let max_feasible_block t =
  (* Largest clean square on an empty floor (classic dynamic program):
     bounds what any single job can ever get, independent of batch
     composition... in tiles; converted to the largest block whose footprint
     fits inside it. *)
  let dp = Array.make_matrix t.rows t.cols 0 in
  let best = ref 0 in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      dp.(r).(c) <-
        (if not t.clean.(r).(c) then 0
         else if r = 0 || c = 0 then 1
         else 1 + min dp.(r - 1).(c) (min dp.(r).(c - 1) dp.(r - 1).(c - 1)));
      best := max !best dp.(r).(c)
    done
  done;
  let rec fit k = if k >= 1 && t.footprint k > !best then fit (k - 1) else k in
  fit t.max_block
