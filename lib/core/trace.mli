(** Span-based tracing for the compilation/execution pipeline.

    [with_span_opt trace "synth" (fun () -> ...)] records the wall time of
    the callback under the name ["synth"]; [counter_opt trace "gates" n]
    attaches a named integer to the innermost open span.  Both are no-ops
    when [trace] is [None], so an untraced run costs one option match.  A
    trace accumulates completed spans in execution order and exports them
    as aligned text or JSON. *)

type span = {
  name : string;
  elapsed_seconds : float;
  counters : (string * int) list;  (** in the order first set *)
}

type t

val create : unit -> t

val spans : t -> span list
(** Completed spans, in completion order. *)

val find_span : t -> string -> span option
val find_counter : t -> string -> string -> int option

val set_summary : t -> string -> float -> unit
(** Set (or overwrite) a trace-wide summary value — a fact about the whole
    run (cache hit totals, tiler occupancy, ...) rather than any one span.
    Values are plain floats in natural units; integral values print as
    integers.
    Summaries export as a top-level ["summary"] object in {!to_json} and a
    trailing [summary:] line in {!pp}. *)

val set_summaries : t -> prefix:string -> (string * float) list -> unit
(** {!set_summary} for each [(field, value)] of a [fields] declaration,
    under [prefix ^ field] with underscores as dashes: [~prefix:"serve-"]
    sets [jobs_done] as [serve-jobs-done]. *)

val summary : t -> (string * float) list
(** Summary key/values, in the order first set. *)

val find_summary : t -> string -> float option

val with_span_opt : t option -> string -> (unit -> 'a) -> 'a
(** Time [f] under a named span.  Spans nest; the span is recorded even
    when [f] raises. *)

val counter_opt : t option -> string -> int -> unit
(** Attach (or overwrite) a counter on the innermost open span. *)

val to_text : t -> string

val to_json : t -> string
(** [{"total_seconds":..., "summary":{...}, "spans":[{"name":...,
    "elapsed_seconds":..., "counters":{...}}, ...]}], printed by
    {!Json.to_string}: times at full precision. *)
