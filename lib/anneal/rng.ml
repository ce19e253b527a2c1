(** Deterministic splitmix64 PRNG.

    Solvers take integer seeds and must reproduce bit-identical runs across
    OCaml versions, so we avoid [Stdlib.Random] (whose algorithm changed in
    5.0) and implement splitmix64 directly. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform float in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(** Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let raw = Int64.to_int (next_int64 t) land max_int in
  raw mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** A random spin vector. *)
let spins t n = Array.init n (fun _ -> if bool t then 1 else -1)

(** Fisher–Yates shuffle in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** Derive a non-negative integer seed for an independent child stream. *)
let next_seed t = Int64.to_int (next_int64 t) land max_int

(* --- Lane generators -------------------------------------------------------- *)

(** Per-lane counter generators for the bit-parallel kernel ({!Bitpar}):
    one independent stream per replica lane, states in a flat [int array]
    so the hot loop never touches a boxed number.

    Each lane is a 63-bit splitmix-style stream on the native int: the
    state is an additive counter (odd increment, so the period is 2^63
    regardless of the seed) and the output is a multiply-xorshift mix of
    the counter.  Acceptance draws take the top 61 bits, matching the
    threshold scale of {!Schedule.acceptance_tables}. *)
module Lanes = struct
  type t = { states : int array }

  (* Odd 63-bit increment (the splitmix64 golden ratio, truncated): any
     odd increment gives the full 2^63 period mod 2^63. *)
  let increment = 0x1E3779B97F4A7C15

  (* Multiply-xorshift mix (xorshift* output stage constants). *)
  let[@inline] mix z =
    let z = z lxor (z lsr 30) in
    let z = z * 0x2545F4914F6CDD1D in
    z lxor (z lsr 27)

  let of_seeds seeds = { states = Array.copy seeds }

  let create rng n = { states = Array.init n (fun _ -> next_seed rng) }

  let states t = t.states

  (* 61-bit uniform draw for lane [l], advancing only that lane's state.
     [unsafe]: callers index lanes they created.  The packed kernel inlines
     this arithmetic by hand ([Bitpar], via {!increment} and {!mix}) — the
     equivalence tests pin the two code paths together. *)
  let[@inline] draw t l =
    let s = Array.unsafe_get t.states l + increment in
    Array.unsafe_set t.states l s;
    mix s lsr 2
end
