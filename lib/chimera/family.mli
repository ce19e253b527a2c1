(** A topology {e family}: the tile structure a hardware graph exposes so the
    tiler can carve it into independent blocks without knowing the fabric.

    Both supported fabrics are built from an [rows x cols] grid of {e tiles}
    that partition the qubits ({!tile_of_qubit}).  A {e block} of size [k] is
    a square region that induces a subgraph isomorphic to a small pristine
    fabric of the same family ([build_local k]); [block_qubits] names the
    global qubit playing the role of each local qubit, which is what lets an
    embedding found on the local graph be translated verbatim onto the chip
    — the heart of composition invariance (an embedding is a function of the
    job alone, never of where the batch scheduler places it).

    For Chimera a tile is a unit cell and a [k]-block spans exactly [k x k]
    tiles.  For Pegasus a tile is the bundle of 24 segments meeting at one
    grid square; a [k]-block is a translated [P_{k+1}] whose footprint is
    [(k+1) x (k+1)] tiles (adjacent blocks would share a boundary offset
    column, so the placement must reserve the extra row and column —
    {!footprint} tells the tiler how much floor each block really uses). *)

type t = {
  graph : Topology.t;  (** the full hardware graph being carved *)
  family : string;  (** ["chimera"] or ["pegasus"] *)
  rows : int;  (** tile-grid height *)
  cols : int;  (** tile-grid width *)
  max_block : int;  (** largest block size the fabric could ever host *)
  clean : bool array array;
      (** [clean.(r).(c)]: tile usable for carving — no qubit broken beyond
          what a pristine fabric of this family already trims *)
  footprint : int -> int;
      (** tiles per side a placed block of size [k] occupies *)
  block_capacity : int -> int;
      (** working qubits a clean block of size [k] offers (a ladder starting
          point, not a promise) *)
  build_local : int -> Topology.t;
      (** pristine local fabric a size-[k] block is isomorphic to; its
          [name] is family-distinct, so cache keys never collide across
          fabrics.  Built on the first call for each [k]; every later call,
          from any domain, returns that same (physically equal) graph,
          which callers must treat as immutable *)
  block_qubits : r0:int -> c0:int -> block:int -> int array;
      (** global qubit ids of the block at tile [(r0, c0)], indexed by local
          qubit id of [build_local block] *)
  tile_of_qubit : int -> int * int;  (** [(row, col)] of a qubit's tile *)
}

val chimera : Chimera.t -> t
(** Requires the ["m"]/["shore"] params that {!Chimera.create} sets. *)

val pegasus : Pegasus.t -> t
(** Requires a graph built by {!Pegasus.create} (its shift lists are
    recovered from the params, so exotic crossing geometries carve
    correctly). *)

val of_topology : Topology.t -> t
(** Dispatch on the graph's identity: a ["shore"] param means Chimera, a
    ["pegasus-"] name prefix means Pegasus.  Raises [Invalid_argument] for
    anything else.  Each call starts a fresh {!build_local} memo, so build
    the family once and reuse it (the batch server does, per service). *)

val max_feasible_block : t -> int
(** Largest block whose footprint fits inside the largest clean square of
    the (empty) tile grid — the ceiling on what any single job can get,
    independent of batch composition. *)
