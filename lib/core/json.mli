(** The one JSON codec: wire frames, trace exports and bench reports all
    print and parse through it.

    Hand-written (the toolchain has no JSON package) and deliberately
    small: objects, arrays, strings with the standard escapes, numbers,
    booleans, null.  It accepts any JSON text nested at most 512 deep and
    emits a canonical form (no whitespace, object keys in construction
    order).

    Floats are printed with enough digits to round-trip bit-exactly
    ([%.17g]); integral values below 1e15 print as integers, so counters
    and tickets stay readable.  A value read back compares equal to the one
    written — the serving tier's determinism contract survives
    serialization. *)

exception Error of string
(** Malformed input, trailing bytes, or a non-finite number to print. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> t
(** Raises {!Error} on malformed input or trailing bytes; never any other
    exception. *)
