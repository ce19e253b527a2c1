(** The Chimera hardware graph of a D-Wave 2000Q (section 2, Figure 1).

    A [C_m] Chimera graph is an [m x m] grid of unit cells; each unit cell is
    a complete bipartite K_{t,t} over a horizontal partition ([t] qubits) and
    a vertical partition.  Horizontal-partition qubits connect to their peers
    in the cells north and south; vertical-partition qubits to their peers
    east and west.  A D-Wave 2000Q is a [C16] with shore size [t = 4]
    (2048 qubits); larger shores model the "greater connectivity" of later
    hardware generations.

    Qubit numbering follows D-Wave's convention:
    [q = 2t*(row*m + col) + t*partition + index], with [partition] 0 for the
    horizontal side.

    Real devices always have inoperable ("broken") qubits; [create ~broken]
    models the drop-out the paper mentions. *)

type t = Topology.t
(** Chimera graphs are plain topologies; everything in {!Topology} applies. *)

type coords = {
  row : int;
  col : int;
  partition : int;  (** 0 = horizontal, 1 = vertical *)
  index : int;  (** 0..t-1 within the partition *)
}

val create : ?broken:int list -> ?shore:int -> int -> t
(** [create m] builds a [C_m] with shore 4; raises [Invalid_argument] for
    [m < 1] or [shore < 1]. *)

val dwave_2000q : t
(** [C16], shore 4, no broken qubits. *)

val size : t -> int
(** The grid dimension [m]. *)

val shore : t -> int

val num_qubits : t -> int
val num_working_qubits : t -> int

val qubit : t -> coords -> int
val coords : t -> int -> coords

val is_working : t -> int -> bool
val adjacent : t -> int -> int -> bool
val neighbors : t -> int -> int list
val edges : t -> (int * int) list
val num_edges : t -> int
val degree : t -> int -> int

(** [has_odd_cycles t] is always false: Chimera graphs are bipartite
    (section 4.4 — no 3-cycles exist, hence most Table 5 cells cannot be
    realized without minor embedding). *)
val has_odd_cycles : t -> bool
