(** Wire protocol for the serving tier: length-prefixed JSON frames over a
    stream socket (Unix-domain or TCP).

    Every frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  One request frame yields exactly one reply frame;
    requests on a connection are served in order, so a client may pipeline.
    Frames above {!max_frame_len} are rejected without being read — a
    length prefix is attacker-controlled input and must not size a buffer
    unchecked.

    The codec is {!Qac_diag.Json}; this module re-exports it under its
    historical names. *)

exception Protocol_error of string
(** Malformed frame or JSON, unknown request, or oversized length prefix.
    The same exception as {!Qac_diag.Json.Error}. *)

(** {1 JSON} *)

type json = Qac_diag.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
val json_of_string : string -> json
(** Raises {!Protocol_error} on malformed input or trailing bytes. *)

(** {1 Requests and replies} *)

type request =
  | Submit of Serve.job
  | Submit_sat of { id : string; dimacs : string; timeout_ms : float option }
      (** a SAT/MaxSAT job as DIMACS CNF/WCNF text: the server parses and
          compiles it ({!Qac_sat.Compile}) and submits the resulting Ising
          problem like any other job.  Response spins are in the compiled
          problem's variable space — formula variables first, ancillas
          after — so a client holding the same DIMACS text can decode by
          compiling locally.  Malformed or refused input (parse errors,
          weight spread beyond the coefficient budget) answers [Error]
          with the diagnostic, not a dropped connection. *)
  | Poll of int  (** ticket *)
  | Cancel of int  (** ticket *)
  | Stats
  | Metrics
  | Shutdown  (** drain the pool and stop the server *)

type reply =
  | Submitted of { ticket : int; shard : int }
  | Busy of { retry_after_ms : float }
      (** admission control shed the job; retry after the hint *)
  | Pending  (** poll: job still queued or in flight *)
  | Completed of Serve.result  (** poll: finished *)
  | Cancel_ok of bool
  | Stats_json of json  (** see {!stats_to_json} *)
  | Metrics_text of string
  | Shutdown_ok
  | Error of string  (** unknown ticket, parse failure, server-side error *)

val request_to_json : request -> json
val request_of_json : json -> request
val reply_to_json : reply -> json
val reply_of_json : json -> reply

val problem_to_json : Qac_ising.Problem.t -> json
val problem_of_json : json -> Qac_ising.Problem.t

val result_to_json : Serve.result -> json
val result_of_json : json -> Serve.result

val stats_to_json : Shard.shard_stats array -> json
(** One object per shard: [serve] renders {!Serve.fields}, [cache]
    renders {!Qac_embed.Cache.fields}, and [latency] renders
    {!Serve.latency_fields} (count, sum and p50/p90/p99; the full
    histogram stays on the {!Metrics} surface). *)

(** {1 Framing} *)

val max_frame_len : int
(** 16 MiB.  Both sides enforce it. *)

val write_frame : Unix.file_descr -> string -> unit
(** Raises {!Protocol_error} if the payload exceeds {!max_frame_len}. *)

val read_frame : Unix.file_descr -> string option
(** [None] on clean EOF at a frame boundary.  Raises {!Protocol_error} on
    an oversized or negative declared length, or EOF mid-frame. *)

(** {1 Client helpers} *)

val connect : Unix.sockaddr -> Unix.file_descr

val call : Unix.file_descr -> request -> reply
(** One request/reply exchange.  Raises {!Protocol_error} if the server
    closes the connection instead of replying. *)
