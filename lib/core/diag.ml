(** Structured diagnostics shared by every pipeline stage.

    One exception for the whole toolchain: a diagnostic knows which stage
    raised it (parse, elab, synth, qmasm-assemble, embed, ...) and,
    when available, the source line, so callers never need a per-module
    catch ladder to recover provenance. *)

type t = {
  stage : string;
  message : string;
  line : int option;
}

exception Error of t

let make ?line ~stage message = { stage; message; line }

let error ?line ~stage fmt =
  Format.kasprintf (fun s -> raise (Error (make ?line ~stage s))) fmt

let stage d = d.stage
let message d = d.message

let to_string d =
  match d.line with
  | Some l -> Printf.sprintf "%s: line %d: %s" d.stage l d.message
  | None -> Printf.sprintf "%s: %s" d.stage d.message

let with_line line d = { d with line = Some line }

(* Re-raise an untagged (line-less) diagnostic with position information;
   one with a line already attached keeps the more precise inner location. *)
let locate ~line f =
  try f () with Error d when d.line = None -> raise (Error (with_line line d))

let protect f =
  match f () with
  | v -> Ok v
  | exception Error d -> Stdlib.Error d

let get = function
  | Ok v -> v
  | Stdlib.Error d -> raise (Error d)
