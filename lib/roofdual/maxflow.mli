(** Dinic maximum flow on a small dense-ish directed graph, for the
    roof-duality implication network. *)

type t

val create : int -> t
(** [create n] is an empty network over nodes [0 .. n-1]. *)

val add_edge : t -> int -> int -> float -> unit
(** [add_edge t u v cap] adds a directed edge with capacity [cap] (and a
    zero-capacity reverse edge).  Raises [Invalid_argument] on a negative
    capacity. *)

val max_flow : t -> source:int -> sink:int -> float
(** Saturates the network and returns the total flow pushed. *)

val reachable : t -> source:int -> bool array
(** Nodes reachable from [source] in the residual graph (the source side of
    a minimum cut). *)
