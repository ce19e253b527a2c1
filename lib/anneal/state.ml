(** Incremental annealing state: one replica's spin configuration plus the
    cached local field of every spin and a running energy.

    Invariants (maintained by {!flip}, checked by the property tests):
    - [fields.(i) = h.(i) + sum_j J_ij * spins.(j)] for every [i];
    - [energy t = Problem.energy problem spins].

    With the cache, a Metropolis proposal costs O(1)
    ([delta i = -2 * spins.(i) * fields.(i)] — the field of [i] does not
    depend on [spins.(i)] itself) and an accepted flip costs O(degree i):
    one CSR row walk pushing the field change to the neighbors.  The
    list-walking kernel this replaces re-derived the field from boxed
    adjacency lists on every proposal, accepted or not. *)

open Qac_ising

type t = {
  problem : Problem.t;
  spins : Problem.spin array;  (** aliased, mutated in place *)
  fields : float array;
  mutable energy : float;
}

(* [make p spins] wraps [spins] WITHOUT copying: flips mutate the caller's
   array.  Callers that need the original intact must copy first. *)
let make (p : Problem.t) spins =
  let energy = Problem.energy p spins in
  (* energy already validated length and spin values *)
  (* [Problem.local_field], inlined: a cross-module float result is boxed. *)
  let fields = Array.make p.Problem.num_vars 0.0 in
  for i = 0 to p.Problem.num_vars - 1 do
    let f = ref p.Problem.h.(i) in
    for k = p.Problem.row_start.(i) to p.Problem.row_start.(i + 1) - 1 do
      f := !f +. (p.Problem.weight.(k) *. float_of_int spins.(p.Problem.col.(k)))
    done;
    fields.(i) <- !f
  done;
  { problem = p; spins; fields; energy }

let random p rng = make p (Rng.spins rng p.Problem.num_vars)

let copy t =
  { problem = t.problem;
    spins = Array.copy t.spins;
    fields = Array.copy t.fields;
    energy = t.energy }

let spins t = t.spins

let energy t = t.energy

let field t i = t.fields.(i)
let num_vars t = t.problem.Problem.num_vars

let delta t i = -2.0 *. float_of_int t.spins.(i) *. t.fields.(i)

let flip t i =
  let p = t.problem in
  let s = t.spins.(i) in
  t.energy <- t.energy +. (-2.0 *. float_of_int s *. t.fields.(i));
  t.spins.(i) <- -s;
  let step = -2.0 *. float_of_int s in
  for k = p.Problem.row_start.(i) to p.Problem.row_start.(i + 1) - 1 do
    let j = p.Problem.col.(k) in
    t.fields.(j) <- t.fields.(j) +. (step *. p.Problem.weight.(k))
  done
