(** Generic hardware topologies.

    A topology is a fixed undirected graph over qubit indices with a
    per-qubit working mask.  {!Chimera} (the D-Wave 2000Q layout the paper
    targets) and {!Pegasus} (the "greater connectivity" future generation
    the paper's conclusion anticipates) both produce values of this type, so
    the embedder and the pipeline are topology-agnostic.

    Adjacency is stored in compressed-sparse-row form, mirroring
    [Qac_ising.Problem.t]: the working neighbors of qubit [q] occupy
    [col.(row_start.(q)) .. col.(row_start.(q+1) - 1)], sorted ascending.
    Broken qubits have empty rows.  Hot paths (the embedder's Dijkstra) walk
    [row_start]/[col] directly; everything else goes through the accessors. *)

type t = {
  name : string;  (** e.g. ["chimera-16x16x4"] *)
  params : (string * int) list;  (** named structural parameters, e.g. [("m", 16)] *)
  row_start : int array;  (** CSR row table, length [num_qubits + 1] *)
  col : int array;  (** concatenated sorted neighbor rows (each edge twice) *)
  working : bool array;
  num_edges : int;  (** memoized distinct working-working edge count *)
}

(** [create ~name ~params ~num_qubits ~edges ~broken] builds a topology from
    an edge list; broken qubits lose all their edges.  Duplicate edges (in
    either orientation) collapse; construction is O(V + E) via a hashed
    edge set. *)
val create :
  name:string ->
  params:(string * int) list ->
  num_qubits:int ->
  edges:(int * int) list ->
  ?broken:int list ->
  unit ->
  t

val num_qubits : t -> int
val num_working_qubits : t -> int
val is_working : t -> int -> bool

val neighbors : t -> int -> int list
(** Ascending. *)

val adjacent : t -> int -> int -> bool
(** Binary search in the sorted row of the first argument: O(log degree). *)

val edges : t -> (int * int) list
(** Each edge once, as [(low, high)], sorted ascending. *)

val num_edges : t -> int
(** O(1) (memoized at construction). *)

val degree : t -> int -> int
(** O(1). *)

val max_degree : t -> int

val param : t -> string -> int
(** Raises [Not_found] for unknown parameters. *)

(** [is_bipartite t] — Chimera graphs are bipartite (no odd cycles,
    section 4.4); Pegasus is not (its odd couplers create triangles). *)
val is_bipartite : t -> bool
