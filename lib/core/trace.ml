(** Span-based tracing for the compilation/execution pipeline.

    A trace is an ordered list of completed spans; each span has a wall
    time and named integer counters (gates, nets, logical vars, physical
    qubits, ...).  Spans nest: counters attach to the innermost open
    span.  Everything is a no-op when no trace is supplied (the [_opt]
    helpers), so the instrumented hot path costs one option match. *)

type span = {
  name : string;
  elapsed_seconds : float;
  counters : (string * int) list;  (** in the order first set *)
}

type frame = {
  fname : string;
  start : float;
  mutable fcounters : (string * int) list;  (* in the order first set *)
}

type t = {
  mutable completed : span list;  (* reverse order *)
  mutable stack : frame list;  (* innermost first *)
  mutable summaries : (string * float) list;  (* in the order first set *)
}

let create () = { completed = []; stack = []; summaries = [] }

let now = Unix.gettimeofday

let with_span t name f =
  let frame = { fname = name; start = now (); fcounters = [] } in
  t.stack <- frame :: t.stack;
  let finish () =
    (t.stack <- (match t.stack with _ :: rest -> rest | [] -> []));
    t.completed <-
      { name = frame.fname;
        elapsed_seconds = now () -. frame.start;
        counters = frame.fcounters }
      :: t.completed
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Overwrite [key] in place, or append it: keys keep the order first set. *)
let rec assoc_set key value = function
  | [] -> [ (key, value) ]
  | (k, _) :: rest when k = key -> (k, value) :: rest
  | kv :: rest -> kv :: assoc_set key value rest

let counter t key value =
  match t.stack with
  | frame :: _ -> frame.fcounters <- assoc_set key value frame.fcounters
  | [] ->
    (* Counter outside any span: record it as a zero-duration span so the
       value is not silently lost. *)
    t.completed <- { name = key; elapsed_seconds = 0.0; counters = [ (key, value) ] } :: t.completed

let spans t = List.rev t.completed

let find_span t name = List.find_opt (fun s -> s.name = name) (spans t)

let find_counter t span_name key =
  match find_span t span_name with
  | None -> None
  | Some s -> List.assoc_opt key s.counters

let total_seconds t =
  List.fold_left (fun acc s -> acc +. s.elapsed_seconds) 0.0 (spans t)

(* Summaries are trace-wide key/value facts (cache hit totals, occupancy,
   ...) that belong to the run, not to any one span. *)
let set_summary t key value = t.summaries <- assoc_set key value t.summaries

let set_summaries t ~prefix fields =
  List.iter
    (fun (k, v) -> set_summary t (prefix ^ String.map (function '_' -> '-' | c -> c) k) v)
    fields

let summary t = t.summaries
let find_summary t key = List.assoc_opt key t.summaries

(* --- Optional-trace helpers ------------------------------------------------ *)

let with_span_opt t name f =
  match t with
  | Some t -> with_span t name f
  | None -> f ()

let counter_opt t key value =
  match t with
  | Some t -> counter t key value
  | None -> ()

(* --- Export ---------------------------------------------------------------- *)

let pp fmt t =
  let spans = spans t in
  let width =
    List.fold_left (fun acc s -> max acc (String.length s.name)) 4 spans
  in
  List.iter
    (fun s ->
       Format.fprintf fmt "%-*s %9.3f ms" width s.name (s.elapsed_seconds *. 1000.0);
       List.iter (fun (k, v) -> Format.fprintf fmt "  %s=%d" k v) s.counters;
       Format.fprintf fmt "@.")
    spans;
  Format.fprintf fmt "%-*s %9.3f ms@." width "total" (total_seconds t *. 1000.0);
  match t.summaries with
  | [] -> ()
  | kvs ->
    Format.fprintf fmt "summary:";
    List.iter
      (fun (k, v) ->
         if Float.is_integer v then Format.fprintf fmt " %s=%.0f" k v
         else Format.fprintf fmt " %s=%g" k v)
      kvs;
    Format.fprintf fmt "@."

let to_text t = Format.asprintf "%a" pp t

let to_json t =
  let open Json in
  let obj kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs) in
  let span_json s =
    Obj
      [ ("name", Str s.name);
        ("elapsed_seconds", Num s.elapsed_seconds);
        ("counters", obj (List.map (fun (k, v) -> (k, float_of_int v)) s.counters)) ]
  in
  to_string
    (Obj
       [ ("total_seconds", Num (total_seconds t));
         ("summary", obj t.summaries);
         ("spans", Arr (List.map span_json (spans t))) ])
