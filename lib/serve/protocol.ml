(** Length-prefixed JSON wire protocol (see protocol.mli). *)

module Problem = Qac_ising.Problem
module Sampler = Qac_anneal.Sampler
module Cache = Qac_embed.Cache

exception Protocol_error = Qac_diag.Json.Error

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

type json = Qac_diag.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_to_string = Qac_diag.Json.to_string
let json_of_string = Qac_diag.Json.of_string

(* --- Typed accessors --------------------------------------------------------- *)

let field obj name =
  match obj with
  | Obj fields ->
    (match List.assoc_opt name fields with
     | Some v -> v
     | None -> fail "missing field %S" name)
  | _ -> fail "expected an object with field %S" name

let field_opt obj name =
  match obj with
  | Obj fields ->
    (match List.assoc_opt name fields with Some Null | None -> None | v -> v)
  | _ -> None

let as_num = function Num f -> f | _ -> fail "expected a number"
let as_int j =
  let f = as_num j in
  if Float.is_integer f then int_of_float f else fail "expected an integer"
let as_str = function Str s -> s | _ -> fail "expected a string"
let as_bool = function Bool b -> b | _ -> fail "expected a boolean"
let as_arr = function Arr l -> l | _ -> fail "expected an array"

(* --- Domain codecs ----------------------------------------------------------- *)

let problem_to_json (p : Problem.t) =
  Obj
    [ ("num_vars", Num (float_of_int p.Problem.num_vars));
      ("offset", Num p.Problem.offset);
      ("h", Arr (Array.to_list (Array.map (fun v -> Num v) p.Problem.h)));
      ( "j",
        Arr
          (Array.to_list
             (Array.map
                (fun ((i, j), v) ->
                   Arr [ Num (float_of_int i); Num (float_of_int j); Num v ])
                p.Problem.couplers)) ) ]

let problem_of_json j =
  let num_vars = as_int (field j "num_vars") in
  let offset = as_num (field j "offset") in
  let h = Array.of_list (List.map as_num (as_arr (field j "h"))) in
  let couplers =
    List.map
      (fun entry ->
         match as_arr entry with
         | [ i; jj; v ] -> ((as_int i, as_int jj), as_num v)
         | _ -> fail "coupler entries are [i, j, value]")
      (as_arr (field j "j"))
  in
  try Problem.create ~num_vars ~h ~j:couplers ~offset ()
  with Invalid_argument m -> fail "bad problem: %s" m

(* A reply carries thousands of spins, so each is one list cell around a
   shared [Num] rather than a fresh [Num] and boxed float of its own. *)
let spin_up = Num 1.0
let spin_down = Num (-1.0)

let sample_to_json (s : Sampler.sample) =
  Obj
    [ ( "spins",
        Arr
          (Array.fold_right
             (fun sp acc ->
                (match sp with 1 -> spin_up | -1 -> spin_down | sp -> Num (float_of_int sp)) :: acc)
             s.Sampler.spins []) );
      ("energy", Num s.Sampler.energy);
      ("num_occurrences", Num (float_of_int s.Sampler.num_occurrences)) ]

(* Filled in place: [Array.of_list (List.map ...)] would build a second
   list as long as the spins. *)
let int_array_of_json j =
  let items = as_arr j in
  let a = Array.make (List.length items) 0 in
  List.iteri (fun i x -> a.(i) <- as_int x) items;
  a

let sample_of_json j =
  { Sampler.spins = int_array_of_json (field j "spins");
    energy = as_num (field j "energy");
    num_occurrences = as_int (field j "num_occurrences") }

let response_to_json (r : Sampler.response) =
  Obj
    [ ("samples", Arr (List.map sample_to_json r.Sampler.samples));
      ("num_reads", Num (float_of_int r.Sampler.num_reads));
      ("elapsed_seconds", Num r.Sampler.elapsed_seconds);
      ("timed_out", Bool r.Sampler.timed_out) ]

let response_of_json j =
  { Sampler.samples = List.map sample_of_json (as_arr (field j "samples"));
    num_reads = as_int (field j "num_reads");
    elapsed_seconds = as_num (field j "elapsed_seconds");
    timed_out = as_bool (field j "timed_out") }

let job_to_json (job : Serve.job) =
  Obj
    [ ("id", Str job.Serve.id);
      ("problem", problem_to_json job.Serve.problem);
      ( "timeout_ms",
        match job.Serve.timeout_ms with None -> Null | Some ms -> Num ms ) ]

let job_of_json j =
  { Serve.id = as_str (field j "id");
    problem = problem_of_json (field j "problem");
    timeout_ms = Option.map as_num (field_opt j "timeout_ms") }

let status_to_json = function
  | Serve.Done -> Str "done"
  | Serve.Timed_out -> Str "timed_out"
  | Serve.Canceled -> Str "canceled"
  | Serve.Failed msg -> Obj [ ("failed", Str msg) ]

let status_of_json = function
  | Str "done" -> Serve.Done
  | Str "timed_out" -> Serve.Timed_out
  | Str "canceled" -> Serve.Canceled
  | Obj [ ("failed", Str msg) ] -> Serve.Failed msg
  | _ -> fail "bad status"

let result_to_json (r : Serve.result) =
  Obj
    [ ("id", Str r.Serve.id);
      ("status", status_to_json r.Serve.status);
      ( "response",
        match r.Serve.response with None -> Null | Some resp -> response_to_json resp );
      ("batch", Num (float_of_int r.Serve.batch));
      ("wait_seconds", Num r.Serve.wait_seconds);
      ("solve_seconds", Num r.Serve.solve_seconds) ]

let result_of_json j =
  { Serve.id = as_str (field j "id");
    status = status_of_json (field j "status");
    response = Option.map response_of_json (field_opt j "response");
    batch = as_int (field j "batch");
    wait_seconds = as_num (field j "wait_seconds");
    solve_seconds = as_num (field j "solve_seconds") }

let finite f = if Float.is_nan f || Float.abs f = infinity then 0.0 else f

let stats_to_json (stats : Shard.shard_stats array) =
  let obj fields = Obj (List.map (fun (k, v) -> (k, Num (finite v))) fields) in
  Arr
    (Array.to_list
       (Array.map
          (fun (s : Shard.shard_stats) ->
             Obj
               [ ("shard", Num (float_of_int s.Shard.shard));
                 ("serve", obj (Serve.fields s.Shard.serve));
                 ("cache", obj (Cache.fields s.Shard.cache));
                 ("latency", obj (Serve.latency_fields s.Shard.latency)) ])
          stats))

(* --- Requests and replies ---------------------------------------------------- *)

type request =
  | Submit of Serve.job
  | Submit_sat of { id : string; dimacs : string; timeout_ms : float option }
  | Poll of int
  | Cancel of int
  | Stats
  | Metrics
  | Shutdown

type reply =
  | Submitted of { ticket : int; shard : int }
  | Busy of { retry_after_ms : float }
  | Pending
  | Completed of Serve.result
  | Cancel_ok of bool
  | Stats_json of json
  | Metrics_text of string
  | Shutdown_ok
  | Error of string

let request_to_json = function
  | Submit job -> Obj [ ("op", Str "submit"); ("job", job_to_json job) ]
  | Submit_sat { id; dimacs; timeout_ms } ->
    Obj
      [ ("op", Str "submit_sat");
        ("id", Str id);
        ("dimacs", Str dimacs);
        ("timeout_ms", match timeout_ms with None -> Null | Some ms -> Num ms) ]
  | Poll ticket -> Obj [ ("op", Str "poll"); ("ticket", Num (float_of_int ticket)) ]
  | Cancel ticket ->
    Obj [ ("op", Str "cancel"); ("ticket", Num (float_of_int ticket)) ]
  | Stats -> Obj [ ("op", Str "stats") ]
  | Metrics -> Obj [ ("op", Str "metrics") ]
  | Shutdown -> Obj [ ("op", Str "shutdown") ]

let request_of_json j =
  match as_str (field j "op") with
  | "submit" -> Submit (job_of_json (field j "job"))
  | "submit_sat" ->
    Submit_sat
      { id = as_str (field j "id");
        dimacs = as_str (field j "dimacs");
        timeout_ms = Option.map as_num (field_opt j "timeout_ms") }
  | "poll" -> Poll (as_int (field j "ticket"))
  | "cancel" -> Cancel (as_int (field j "ticket"))
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "shutdown" -> Shutdown
  | op -> fail "unknown op %S" op

let reply_to_json = function
  | Submitted { ticket; shard } ->
    Obj
      [ ("ok", Bool true);
        ("ticket", Num (float_of_int ticket));
        ("shard", Num (float_of_int shard)) ]
  | Busy { retry_after_ms } ->
    Obj
      [ ("ok", Bool false);
        ("error", Str "busy");
        ("retry_after_ms", Num retry_after_ms) ]
  | Pending -> Obj [ ("ok", Bool true); ("done", Bool false) ]
  | Completed r ->
    Obj [ ("ok", Bool true); ("done", Bool true); ("result", result_to_json r) ]
  | Cancel_ok b -> Obj [ ("ok", Bool true); ("canceled", Bool b) ]
  | Stats_json s -> Obj [ ("ok", Bool true); ("stats", s) ]
  | Metrics_text m -> Obj [ ("ok", Bool true); ("metrics", Str m) ]
  | Shutdown_ok -> Obj [ ("ok", Bool true); ("shutdown", Bool true) ]
  | Error msg -> Obj [ ("ok", Bool false); ("error", Str msg) ]

let reply_of_json j =
  match as_bool (field j "ok") with
  | false ->
    (match as_str (field j "error") with
     | "busy" -> Busy { retry_after_ms = as_num (field j "retry_after_ms") }
     | msg -> Error msg)
  | true ->
    (match field_opt j "ticket" with
     | Some t -> Submitted { ticket = as_int t; shard = as_int (field j "shard") }
     | None ->
       (match field_opt j "done" with
        | Some (Bool false) -> Pending
        | Some (Bool true) -> Completed (result_of_json (field j "result"))
        | Some _ -> fail "bad done flag"
        | None ->
          (match field_opt j "canceled" with
           | Some b -> Cancel_ok (as_bool b)
           | None ->
             (match field_opt j "stats" with
              | Some s -> Stats_json s
              | None ->
                (match field_opt j "metrics" with
                 | Some m -> Metrics_text (as_str m)
                 | None ->
                   (match field_opt j "shutdown" with
                    | Some (Bool true) -> Shutdown_ok
                    | _ -> fail "unrecognized reply"))))))

(* --- Framing ----------------------------------------------------------------- *)

let max_frame_len = 16 * 1024 * 1024

let write_all fd buf off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.write fd buf !off !left in
    off := !off + n;
    left := !left - n
  done

(* [false] on EOF before the first byte; Protocol_error on EOF mid-read. *)
let read_all fd buf len =
  let off = ref 0 in
  while !off < len do
    let n = Unix.read fd buf !off (len - !off) in
    if n = 0 then
      if !off = 0 then raise Exit else fail "connection closed mid-frame";
    off := !off + n
  done

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame_len then fail "frame too large (%d bytes)" len;
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let read_frame fd =
  let header = Bytes.create 4 in
  match read_all fd header 4 with
  | exception Exit -> None
  | () ->
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame_len then
      fail "declared frame length %d outside [0, %d]" len max_frame_len;
    let payload = Bytes.create len in
    (match read_all fd payload len with
     | exception Exit -> fail "connection closed mid-frame"
     | () -> Some (Bytes.unsafe_to_string payload))

(* --- Client helpers ---------------------------------------------------------- *)

let connect sockaddr =
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  fd

let call fd request =
  write_frame fd (json_to_string (request_to_json request));
  match read_frame fd with
  | None -> fail "server closed the connection"
  | Some payload -> reply_of_json (json_of_string payload)
