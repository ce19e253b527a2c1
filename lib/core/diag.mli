(** Structured diagnostics shared by every pipeline stage.

    The single error channel of the toolchain (replacing the historical
    per-module [exception Error of string] copies): a diagnostic carries
    the stage that raised it, the message, and an optional source line. *)

type t = {
  stage : string;  (** e.g. ["verilog-parse"], ["qmasm-assemble"], ["embed"] *)
  message : string;
  line : int option;  (** 1-based line in the stage's input, when known *)
}

exception Error of t

val make : ?line:int -> stage:string -> string -> t

(** [error ~stage fmt ...] formats a message and raises [Error]. *)
val error : ?line:int -> stage:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val stage : t -> string
val message : t -> string

val to_string : t -> string
(** ["stage: message"] or ["stage: line N: message"]. *)

(** [locate ~line f] runs [f], attaching [line] to any escaping
    diagnostic that does not already carry one. *)
val locate : line:int -> (unit -> 'a) -> 'a

val protect : (unit -> 'a) -> ('a, t) result
(** Run a stage, capturing its diagnostic as a [result]. *)

val get : ('a, t) result -> 'a
(** Inverse of [protect]: unwrap or re-raise. *)
