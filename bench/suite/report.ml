(* Run records, statistics and the benchmark contract (BENCHMARK.json)
   shared by qacbench's subcommands.  JSON goes through the serving tier's
   codec, so records and wire frames share one implementation. *)

module J = Qac_serve.Protocol

type metric = { name : string; value : float; unit_ : string }

type check = { label : string; ok : bool; detail : string }

(* One bench-side span: [parent] is another span's [id] (-1 for a root),
   [job] the job it belongs to (-1 for set-up), times in seconds from the
   start of the measured window. *)
type span = {
  id : int;
  parent : int;
  job : int;
  span : string;
  start : float;
  stop : float;
}

type t = {
  workload : string;
  seed : int;
  seconds : float;  (** requested window; smoke runs use fixed job counts *)
  smoke : bool;
  traced : bool;
  attempted : int;
  failed : int;  (** failed, timed out, shed or refused *)
  metrics : metric list;  (** end to end *)
  layers : metric list;  (** per layer; traced runs only *)
  checks : check list;  (** the program's answers are correct *)
  guards : check list;  (** the load generator kept to its schedule *)
  digest : string;  (** canonical responses of the first [digest_jobs] jobs *)
  digest_jobs : int;
  setup_samples : float list;  (** fresh-process set-up times, seconds *)
  spans : span list;
}

let correct r = List.for_all (fun c -> c.ok) r.checks
let valid r = List.for_all (fun c -> c.ok) r.guards

let find name metrics = List.find_opt (fun m -> m.name = name) metrics

(* --- Statistics --------------------------------------------------------- *)

let sorted_array values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

(* Python's [statistics.quantiles values ~n:4] (method "exclusive"), so a
   spread computed here is the spread the standard library reports.  The
   middle quartile is the median. *)
let quartiles values =
  let d = sorted_array values in
  let n = Array.length d in
  if n = 0 then invalid_arg "quartiles: no values";
  if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* Linear interpolation between order statistics; 0 for no samples. *)
let percentile values q =
  let d = sorted_array values in
  let n = Array.length d in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then d.(n - 1) else d.(i) +. ((pos -. float_of_int i) *. (d.(i + 1) -. d.(i)))

let mean values =
  match values with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- The contract ------------------------------------------------------- *)

type spec = {
  sname : string;
  sunit : string;
  higher_is_better : bool;
  bound : float option;  (** share of the parent's median; end-to-end only *)
}

type contract = {
  workloads : string list;
  end_to_end : spec list;
  per_layer : spec list;
}

let field name = function
  | J.Obj fields ->
    (match List.assoc_opt name fields with
     | Some v -> v
     | None -> failwith (Printf.sprintf "missing field %S" name))
  | _ -> failwith (Printf.sprintf "expected an object holding %S" name)

let str = function J.Str s -> s | _ -> failwith "expected a string"
let num = function J.Num f -> f | _ -> failwith "expected a number"
let arr = function J.Arr l -> l | _ -> failwith "expected an array"
let bool = function J.Bool b -> b | _ -> failwith "expected a boolean"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_contract path =
  let j = J.json_of_string (read_file path) in
  let spec ~with_bound s =
    { sname = str (field "name" s);
      sunit = str (field "unit" s);
      higher_is_better =
        (match str (field "better" s) with
         | "higher" -> true
         | "lower" -> false
         | b -> failwith ("unknown direction " ^ b));
      bound = (if with_bound then Some (num (field "bound" s)) else None) }
  in
  { workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" j));
    end_to_end = List.map (spec ~with_bound:true) (arr (field "end_to_end" j));
    per_layer = List.map (spec ~with_bound:false) (arr (field "per_layer" j)) }

(* --- Output ------------------------------------------------------------- *)

let metric_lines r =
  let verdicts kind =
    List.map (fun c ->
        Printf.sprintf "%s %s %s %s %s" kind r.workload c.label (if c.ok then "ok" else "FAIL") c.detail)
  in
  List.map
    (fun m -> Printf.sprintf "metric %s %s %.6g %s" r.workload m.name m.value m.unit_)
    (r.metrics @ r.layers)
  @ verdicts "check" r.checks
  @ verdicts "guard" r.guards

(* The result line the contract asks for: the end-to-end metrics of an
   untraced run or the per-layer metrics of a traced one, exactly the set
   BENCHMARK.json names, each with the unit it declares. *)
let result_json contract r =
  let specs, available =
    if r.traced then (contract.per_layer, r.layers) else (contract.end_to_end, r.metrics)
  in
  let entry s =
    match find s.sname available with
    | Some m when m.unit_ = s.sunit ->
      (s.sname, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ])
    | Some m ->
      failwith (Printf.sprintf "metric %s has unit %s, BENCHMARK.json says %s" s.sname m.unit_ s.sunit)
    | None -> failwith (Printf.sprintf "workload %s did not produce metric %s" r.workload s.sname)
  in
  J.Obj
    [ ("correct", J.Bool (correct r));
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ("metrics", J.Obj (List.map entry specs)) ]

let metrics_json ms =
  J.Obj (List.map (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ])) ms)

let checks_json cs =
  J.Arr
    (List.map
       (fun c -> J.Obj [ ("name", J.Str c.label); ("ok", J.Bool c.ok); ("detail", J.Str c.detail) ])
       cs)

let record_json ~env ?overhead r =
  J.Obj
    ([ ("workload", J.Str r.workload);
       ("seed", J.Num (float_of_int r.seed));
       ("seconds", J.Num r.seconds);
       ("smoke", J.Bool r.smoke);
       ("traced", J.Bool r.traced) ]
     @ List.map (fun (k, v) -> (k, J.Str v)) env
     @ [ ("correct", J.Bool (correct r));
         ("valid", J.Bool (valid r));
         ("attempted", J.Num (float_of_int r.attempted));
         ("failed", J.Num (float_of_int r.failed));
         ("metrics", metrics_json r.metrics);
         ("layers", metrics_json r.layers);
         ("checks", checks_json r.checks);
         ("guards", checks_json r.guards);
         ("responses_digest", J.Str r.digest);
         ("digest_jobs", J.Num (float_of_int r.digest_jobs));
         ("setup_samples_s", J.Arr (List.map (fun s -> J.Num s) r.setup_samples)) ]
     @ match overhead with
     | None -> []
     | Some ms -> [ ("tracing_overhead", metrics_json ms) ])

let spans_json r =
  J.Arr
    (List.rev_map
       (fun s ->
          J.Obj
            [ ("id", J.Num (float_of_int s.id));
              ("parent", J.Num (float_of_int s.parent));
              ("job", J.Num (float_of_int s.job));
              ("name", J.Str s.span);
              ("start", J.Num s.start);
              ("end", J.Num s.stop) ])
       r.spans)

(* --- Reading records back ---------------------------------------------- *)

type saved = {
  s_workload : string;
  s_seed : int;
  s_traced : bool;
  s_valid : bool;
  s_metrics : (string * float) list;
  s_layers : (string * float) list;
  s_checks : (string * bool) list;
  s_digest : string;
}

let load_record path =
  let j = J.json_of_string (read_file path) in
  let values = function
    | J.Obj fields -> List.map (fun (k, v) -> (k, num (field "value" v))) fields
    | _ -> failwith "expected a metrics object"
  in
  { s_workload = str (field "workload" j);
    s_seed = int_of_float (num (field "seed" j));
    s_traced = bool (field "traced" j);
    s_valid = bool (field "valid" j);
    s_metrics = values (field "metrics" j);
    s_layers = values (field "layers" j);
    s_checks =
      List.map (fun c -> (str (field "name" c), bool (field "ok" c))) (arr (field "checks" j));
    s_digest = str (field "responses_digest" j) }
