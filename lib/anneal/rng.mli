(** Deterministic splitmix64 PRNG.

    Solvers take integer seeds and must reproduce bit-identical runs across
    OCaml versions, so [Stdlib.Random] (whose algorithm changed in 5.0) is
    avoided. *)

type t

val create : int -> t

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); raises [Invalid_argument] for
    non-positive bounds. *)

val spins : t -> int -> Qac_ising.Problem.spin array
(** A uniformly random +-1 vector. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

val next_seed : t -> int
(** Derive a non-negative seed for an independent child stream (per-chunk
    seeding in {!Parallel}). *)

type rng := t

(** Per-lane counter generators for the bit-parallel kernel: one
    independent 63-bit splitmix-style stream per replica lane, states in a
    flat [int array] (no boxed numbers in the hot loop).  A lane's draw
    sequence is a pure function of its seed, so a lane annealed inside a
    packed block is bit-identical to the same lane annealed alone. *)
module Lanes : sig
  type t

  val create : rng -> int -> t
  (** [create rng n] seeds [n] lanes by drawing {!next_seed} from [rng]
      in lane order. *)

  val of_seeds : int array -> t
  (** Lane [l] seeded with [seeds.(l)] (copied). *)

  val states : t -> int array
  (** The live per-lane states (aliased): exposed so kernels can duplicate
      a lane for the packed-vs-scalar equivalence tests. *)

  val draw : t -> int -> int
  (** [draw t l] advances lane [l] alone and returns a uniform 61-bit
      non-negative draw, the scale of {!Schedule.acceptance_tables}.
      Equivalent to the multiply-xorshift output mix of
      [states.(l) + increment], shifted right by 2, after storing the
      incremented state — the packed kernel inlines exactly that. *)

  val increment : int
  (** The odd additive constant of the lane counter. *)
end
