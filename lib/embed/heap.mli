(** Indexed 4-ary min-heap of (float priority, int payload) pairs, for
    Dijkstra inside the minor embedder.  Int-specialized: parallel unboxed
    arrays, no tuple boxing, no sentinel hazards.

    The heap tracks each payload's slot, so {!push} on an already-queued
    payload is a decrease-key (a partial sift-up) rather than a duplicate
    insert: every payload is popped at most once per {!clear} epoch and pop
    loops never see stale entries.  Payloads must be in [0, capacity) as set
    by {!ensure}.  Re-pushing a payload that was already popped this epoch
    with a priority below its settled one is undefined — Dijkstra's
    non-negative weights guarantee it cannot happen.

    Not thread-safe; each Dijkstra state owns its heap. *)

type t

val create : unit -> t

val ensure : t -> int -> unit
(** [ensure h capacity] sizes the position index for payloads in
    [0, capacity).  Call once before use (and after any capacity change);
    existing entries are invalidated by the next {!clear}. *)

val is_empty : t -> bool

val clear : t -> unit
(** Empties and invalidates the position index in O(1), keeping allocated
    capacity for reuse. *)

val push : t -> float -> int -> unit
(** Insert, or decrease-key if the payload is already queued. *)

val min_priority : t -> float
(** Undefined on an empty heap (reads the dummy slot); check {!is_empty}. *)

val min_payload : t -> int

val remove_min : t -> unit
(** Raises [Invalid_argument] on an empty heap. *)
