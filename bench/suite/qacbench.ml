(* qacbench: the benchmark that BENCHMARK.json describes.

     qacbench run --workload W --seed S [--seconds N] [--trace [0|1]] [--smoke]
                  [--out F] [--untraced F] [--benchmark F]
     qacbench compare [--benchmark F] A.json ... -- B.json ...
     qacbench smoke [--benchmark F]

   [run] times the workload's set-up in fresh processes ([qacbench setup]),
   measures it for [--seconds], checks every answer, prints one [metric]
   line per metric and ends with the one-line JSON result the contract
   asks for.
   [--out F] also writes the full record to F (and a traced run's spans to
   F with a .spans.json suffix); [--untraced F] makes a traced run report
   its overhead against, and check its answers against, the untraced
   record F.  [compare] judges two sets of records by the bounds in
   BENCHMARK.json.  [smoke] runs every workload small, twice untraced and
   once traced, for [dune runtest]. *)

module R = Report
module W = Workloads

type args = {
  workload : string;
  seed : int;
  seconds : float;
  smoke : bool;
  traced : bool;
  out : string option;
  untraced : string option;
  benchmark : string;
  rest : string list;  (** positional arguments *)
}

let defaults =
  { workload = "";
    seed = 1;
    seconds = 10.0;
    smoke = false;
    traced = false;
    out = None;
    untraced = None;
    benchmark = "BENCHMARK.json";
    rest = [] }

let rec parse a = function
  | [] -> { a with rest = List.rev a.rest }
  | "--workload" :: w :: tl -> parse { a with workload = w } tl
  | "--seed" :: s :: tl -> parse { a with seed = int_of_string s } tl
  | "--seconds" :: s :: tl -> parse { a with seconds = float_of_string s } tl
  | "--trace" :: "1" :: tl -> parse { a with traced = true } tl
  | "--trace" :: "0" :: tl -> parse { a with traced = false } tl
  | "--trace" :: tl -> parse { a with traced = true } tl
  | "--smoke" :: tl -> parse { a with smoke = true } tl
  | "--out" :: f :: tl -> parse { a with out = Some f } tl
  | "--untraced" :: f :: tl -> parse { a with untraced = Some f } tl
  | "--benchmark" :: f :: tl -> parse { a with benchmark = f } tl
  | x :: _ when String.length x > 2 && String.sub x 0 2 = "--" -> failwith ("unknown option " ^ x)
  | x :: tl -> parse { a with rest = x :: a.rest } tl

(* --- Environment -------------------------------------------------------- *)

(* The revision of a git checkout in the working directory, read from its
   files so nothing outside the directory is consulted. *)
let git_rev () =
  let read f = try Some (String.trim (R.read_file f)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    (match Scanf.sscanf_opt head "ref: %s" Fun.id with
     | None -> head
     | Some ref_ ->
       (match read (Filename.concat ".git" ref_) with
        | Some rev -> rev
        | None ->
          let packed = Option.value (read ".git/packed-refs") ~default:"" in
          List.find_map
            (fun line -> Scanf.sscanf_opt line "%s %s" (fun rev r -> if r = ref_ then Some rev else None))
            (String.split_on_char '\n' packed)
          |> Option.join |> Option.value ~default:"unknown"))

let env () =
  [ ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("git_rev", git_rev ()) ]

(* --- Scratch space -------------------------------------------------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A process-private directory under .qacbench/ for the socket and store,
   removed (with .qacbench/ when it empties) however [f] ends. *)
let with_scratch f =
  let root = ".qacbench" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  remove_tree dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        remove_tree dir;
        try Sys.rmdir root with Sys_error _ -> ())
    (fun () -> f dir)

(* --- run ------------------------------------------------------------------ *)

let config a scratch =
  { W.seed = a.seed; seconds = a.seconds; smoke = a.smoke; traced = a.traced; scratch }

(* [qacbench setup]: one set-up in a fresh process.  The parent times it
   from spawn to the "ready" line, so the runtime's start-up and module
   initialisation count as set-up too. *)
let setup_once a =
  with_scratch (fun scratch ->
      let prepared = W.setup (config a scratch) (W.tracer false) a.workload in
      print_endline "ready";
      prepared.W.teardown ())

let setup_in_child a =
  let exe = Sys.executable_name in
  let s = W.now () in
  let ic =
    Unix.open_process_args_in exe [| exe; "setup"; "--workload"; a.workload; "--seed"; string_of_int a.seed |]
  in
  let ready = In_channel.input_line ic in
  let seconds = W.now () -. s in
  ignore (In_channel.input_all ic);
  match (Unix.close_process_in ic, ready) with
  | Unix.WEXITED 0, Some "ready" -> seconds
  | _ -> failwith "set-up child failed"

(* [setup_s] is the median of set-ups in fresh processes, some before the
   window and some after it: the host's speed drifts over seconds, so
   samples taken back to back would all share one speed.  A served set-up
   embeds every structure and takes seconds, so it is repeated less.  A
   smoke run only times its own set-up, without start-up, to stay quick. *)
let setup_children a = if W.served_workload a.workload then (1, 2) else (3, 4)

let measure a =
  let spawn n = if a.smoke then [] else List.init n (fun _ -> setup_in_child a) in
  let before_window, after_window = setup_children a in
  let before = spawn before_window in
  let r, own =
    with_scratch (fun scratch ->
        let s = W.now () in
        let prepared = W.setup (config a scratch) (W.tracer a.traced) a.workload in
        let own = W.now () -. s in
        (Fun.protect ~finally:prepared.W.teardown prepared.W.measure, own))
  in
  let setup_samples = if a.smoke then [ own ] else before @ spawn after_window in
  { r with
    R.setup_samples;
    metrics = { R.name = "setup_s"; value = R.median setup_samples; unit_ = "s" } :: r.R.metrics }

(* A traced run next to the untraced record of the same workload and seed:
   the difference is the tracing overhead, and the answers must agree. *)
let against_untraced (r : R.t) path =
  let u = R.load_record path in
  let overhead =
    List.filter_map
      (fun (mt : R.metric) ->
         Option.map
           (fun v -> { mt with R.value = mt.R.value -. v })
           (List.assoc_opt mt.R.name u.R.s_metrics))
      r.R.metrics
  in
  let same =
    u.R.s_workload = r.R.workload && u.R.s_seed = r.R.seed
    && u.R.s_digest = r.R.digest
    && u.R.s_checks = List.map (fun (c : R.check) -> (c.R.label, c.R.ok)) r.R.checks
  in
  let c = { R.label = "matches_untraced_run"; ok = same; detail = u.R.s_digest } in
  ({ r with R.checks = r.R.checks @ [ c ] }, overhead)

let run a =
  let contract = R.load_contract a.benchmark in
  if not (List.mem a.workload contract.R.workloads) then
    failwith (Printf.sprintf "unknown workload %S (BENCHMARK.json names %s)" a.workload
                (String.concat ", " contract.R.workloads));
  let r = measure a in
  let r, overhead =
    match a.untraced with
    | Some path when a.traced ->
      let r, o = against_untraced r path in
      (r, Some o)
    | _ -> (r, None)
  in
  List.iter print_endline (R.metric_lines r);
  Option.iter
    (List.iter (fun (mt : R.metric) ->
         Printf.printf "overhead %s %s %.6g %s\n" r.R.workload mt.R.name mt.R.value mt.R.unit_))
    overhead;
  Option.iter
    (fun path ->
       Out_channel.with_open_bin path (fun oc ->
           output_string oc (R.J.json_to_string (R.record_json ~env:(env ()) ?overhead r));
           output_char oc '\n');
       if a.traced then
         Out_channel.with_open_bin (Filename.remove_extension path ^ ".spans.json") (fun oc ->
             output_string oc (R.J.json_to_string (R.spans_json r));
             output_char oc '\n'))
    a.out;
  print_endline (R.J.json_to_string (R.result_json contract r));
  if not (R.correct r) then exit 1

(* --- smoke ---------------------------------------------------------------- *)

(* Every workload at smoke size, in this process: two untraced runs and a
   traced one must pass their checks, agree on their answers, and between
   them print every metric BENCHMARK.json names. *)
let smoke a =
  let contract = R.load_contract a.benchmark in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun workload ->
       let go traced = measure { a with workload; smoke = true; traced } in
       let runs = [ go false; go false; go true ] in
       List.iter
         (fun (r : R.t) ->
            List.iter
              (fun (c : R.check) -> if not c.R.ok then fail "%s: check %s failed (%s)" workload c.R.label c.R.detail)
              r.R.checks)
         runs;
       (match runs with
        | [ u1; u2; t ] ->
          if u1.R.digest <> u2.R.digest then fail "%s: answers differ between two runs" workload;
          if u1.R.digest <> t.R.digest then fail "%s: answers differ when traced" workload;
          let printed =
            List.filter_map
              (fun line ->
                 match String.split_on_char ' ' line with
                 | [ "metric"; _; name; _; _ ] -> Some name
                 | _ -> None)
              (R.metric_lines u1 @ R.metric_lines t)
          in
          List.iter
            (fun (s : R.spec) ->
               if not (List.mem s.R.sname printed) then fail "%s: metric %s not printed" workload s.R.sname)
            (contract.R.end_to_end @ contract.R.per_layer);
          (try ignore (R.result_json contract u1); ignore (R.result_json contract t)
           with Failure msg -> fail "%s: %s" workload msg)
        | _ -> assert false))
    contract.R.workloads;
  match !failures with
  | [] -> ()
  | fs ->
    List.iter prerr_endline (List.rev fs);
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse defaults rest)
  | _ :: "setup" :: rest -> setup_once (parse defaults rest)
  | _ :: "smoke" :: rest -> smoke (parse defaults rest)
  | _ :: "compare" :: rest ->
    let a = parse defaults rest in
    exit (Compare.main ~benchmark:a.benchmark a.rest)
  | _ ->
    prerr_endline "usage: qacbench run|compare|smoke ... (see bench/suite/README.md)";
    exit 2
