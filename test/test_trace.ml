(** Span tracing: the mechanism itself, plus the per-stage spans and size
    counters recorded by [Pipeline.compile] and [Pipeline.run]. *)

module Trace = Qac_diag.Trace
module Diag = Qac_diag.Diag
module P = Qac_core.Pipeline

let span_names t = List.map (fun s -> s.Trace.name) (Trace.spans t)

let counter_exn t span key =
  match Trace.find_counter t span key with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "no counter %s on span %s" key span)

let mult_src =
  "module mult (a, b, p); input [2:0] a; input [2:0] b; output [5:0] p; \
   assign p = a * b; endmodule"

let suite =
  [ Alcotest.test_case "spans record order, nesting and counters" `Quick (fun () ->
        let t = Trace.create () in
        let tr = Some t in
        let v =
          Trace.with_span_opt tr "outer" (fun () ->
              Trace.counter_opt tr "a" 1;
              Trace.with_span_opt tr "inner" (fun () -> Trace.counter_opt tr "b" 2);
              Trace.counter_opt tr "a" 3;
              17)
        in
        Alcotest.(check int) "value" 17 v;
        (* Inner completes first; counters attach to the open span. *)
        Alcotest.(check (list string)) "order" [ "inner"; "outer" ] (span_names t);
        Alcotest.(check int) "inner counter" 2 (counter_exn t "inner" "b");
        Alcotest.(check int) "overwritten" 3 (counter_exn t "outer" "a");
        List.iter
          (fun s ->
             Alcotest.(check bool) "non-negative time" true (s.Trace.elapsed_seconds >= 0.0))
          (Trace.spans t));
    Alcotest.test_case "span recorded when the callback raises" `Quick (fun () ->
        let t = Trace.create () in
        (match Trace.with_span_opt (Some t) "failing" (fun () -> Diag.error ~stage:"s" "no") with
         | _ -> Alcotest.fail "expected raise"
         | exception Diag.Error _ -> ());
        Alcotest.(check (list string)) "recorded" [ "failing" ] (span_names t));
    Alcotest.test_case "compile records every stage with counters" `Quick (fun () ->
        let trace = Trace.create () in
        let t = P.compile ~trace mult_src in
        Alcotest.(check (list string)) "stages"
          [ "parse"; "elab"; "synth"; "unroll"; "edif-roundtrip"; "e2q"; "expand";
            "assemble" ]
          (span_names trace);
        Alcotest.(check bool) "gates" true (counter_exn trace "synth" "gates" > 0);
        Alcotest.(check bool) "nets" true (counter_exn trace "synth" "nets" > 0);
        Alcotest.(check bool) "edif lines" true
          (counter_exn trace "edif-roundtrip" "edif-lines" > 0);
        Alcotest.(check bool) "statements" true
          (counter_exn trace "expand" "statements" > 0);
        Alcotest.(check int) "logical vars counter matches program"
          t.P.program.Qac_qmasm.Assemble.problem.Qac_ising.Problem.num_vars
          (counter_exn trace "assemble" "logical-vars"));
    Alcotest.test_case "sequential compile records the unroll depth" `Quick (fun () ->
        let trace = Trace.create () in
        let (_ : P.t) =
          P.compile ~trace ~steps:2
            "module c (clk, q); input clk; output q; reg q; \
             always @(posedge clk) q <= ~q; endmodule"
        in
        Alcotest.(check int) "steps" 2 (counter_exn trace "unroll" "steps"));
    Alcotest.test_case "logical run records assemble/solve/verify" `Quick (fun () ->
        let t = P.compile mult_src in
        let trace = Trace.create () in
        let params =
          { Qac_anneal.Sa.default_params with Qac_anneal.Sa.num_reads = 20; num_sweeps = 50 }
        in
        let (_ : P.run_result) =
          P.run t ~pins:[ ("a", 3); ("b", 5) ] ~trace ~solver:(P.Sa params)
            ~target:P.Logical
        in
        Alcotest.(check (list string)) "stages" [ "assemble"; "solve"; "verify" ]
          (span_names trace);
        Alcotest.(check int) "reads" 20 (counter_exn trace "solve" "reads");
        Alcotest.(check bool) "solutions counted" true
          (counter_exn trace "verify" "distinct-solutions" > 0));
    Alcotest.test_case "physical run records qpbo/embed/unembed with counters" `Quick
      (fun () ->
         let t =
           P.compile
             "module t (a, b, o); input a, b; output o; assign o = a & b; endmodule"
         in
         let trace = Trace.create () in
         let target =
           P.Physical
             { graph = Qac_chimera.Chimera.create 4;
               chain_strength = None;
               roof_duality = false }
         in
         (* A private cache keeps the embed span present whatever ran before. *)
         let r =
           P.run t ~trace ~embed_cache:(Qac_embed.Cache.create ()) ~solver:P.Exact_solver
             ~target
         in
         Alcotest.(check (list string)) "stages"
           [ "assemble"; "qpbo"; "embed"; "solve"; "unembed"; "verify" ]
           (span_names trace);
         Alcotest.(check int) "cold run misses the cache" 1
           (counter_exn trace "embed" "embed-cache-miss");
         let qubits = counter_exn trace "embed" "physical-qubits" in
         Alcotest.(check bool) "qubits >= logical vars" true
           (qubits >= r.P.num_logical_vars);
         Alcotest.(check (option int)) "matches run_result" (Some qubits)
           r.P.num_physical_qubits;
         Alcotest.(check bool) "max chain length" true
           (counter_exn trace "embed" "max-chain-length" >= 1));
    Alcotest.test_case "warm embed cache skips the embed span" `Quick (fun () ->
        let t =
          P.compile
            "module t (a, b, o); input a, b; output o; assign o = a | b; endmodule"
        in
        let target =
          P.Physical
            { graph = Qac_chimera.Chimera.create 4;
              chain_strength = None;
              roof_duality = false }
        in
        let cache = Qac_embed.Cache.create () in
        let run () =
          let trace = Trace.create () in
          let r = P.run t ~trace ~embed_cache:cache ~solver:P.Exact_solver ~target in
          (trace, r)
        in
        let cold_trace, cold = run () in
        let warm_trace, warm = run () in
        Alcotest.(check int) "cold miss" 1
          (counter_exn cold_trace "embed" "embed-cache-miss");
        Alcotest.(check bool) "warm run has no embed span" true
          (not (List.mem "embed" (span_names warm_trace)));
        (* The hit counter lands outside any stage span (recorded as its own
           zero-duration mark). *)
        Alcotest.(check int) "warm hit" 1
          (counter_exn warm_trace "embed-cache-hit" "embed-cache-hit");
        Alcotest.(check (option int)) "same qubit count" cold.P.num_physical_qubits
          warm.P.num_physical_qubits;
        Alcotest.(check bool) "same solutions" true
          (cold.P.solutions = warm.P.solutions));
    Alcotest.test_case "json export" `Quick (fun () ->
        let trace = Trace.create () in
        let (_ : P.t) = P.compile ~trace mult_src in
        let json = Trace.to_json trace in
        let contains needle =
          Qac_qmasm.Str_split.find_substring json needle <> None
        in
        Alcotest.(check bool) "has spans" true (contains "\"spans\":[");
        Alcotest.(check bool) "has total" true (contains "\"total_seconds\":");
        Alcotest.(check bool) "has a stage" true (contains "\"name\":\"synth\"");
        Alcotest.(check bool) "has a counter" true (contains "\"gates\":"));
    Alcotest.test_case "summary values overwrite, export and pretty-print" `Quick
      (fun () ->
         let t = Trace.create () in
         Trace.set_summary t "embed-cache-hits" 2.0;
         Trace.set_summary t "occupancy-pct" 40.0;
         Trace.set_summary t "embed-cache-hits" 5.0;
         Alcotest.(check (list (pair string (float 0.0)))) "ordered, overwritten"
           [ ("embed-cache-hits", 5.0); ("occupancy-pct", 40.0) ]
           (Trace.summary t);
         Alcotest.(check (option (float 0.0))) "lookup" (Some 40.0)
           (Trace.find_summary t "occupancy-pct");
         Alcotest.(check (option (float 0.0))) "missing" None
           (Trace.find_summary t "nope");
         let json = Trace.to_json t in
         let contains haystack needle =
           Qac_qmasm.Str_split.find_substring haystack needle <> None
         in
         Alcotest.(check bool) "summary object in json" true
           (contains json "\"summary\":{\"embed-cache-hits\":5,\"occupancy-pct\":40}");
         Alcotest.(check bool) "summary line in text" true
           (contains (Trace.to_text t) "summary: embed-cache-hits=5 occupancy-pct=40"));
    Alcotest.test_case "empty summary exports an empty object, no text line" `Quick
      (fun () ->
         let t = Trace.create () in
         let contains haystack needle =
           Qac_qmasm.Str_split.find_substring haystack needle <> None
         in
         Alcotest.(check bool) "empty object" true
           (contains (Trace.to_json t) "\"summary\":{}");
         Alcotest.(check bool) "no text line" false
           (contains (Trace.to_text t) "summary:"));
    Alcotest.test_case "run with timeout_ms flags the result and the trace" `Quick
      (fun () ->
         let t = P.compile mult_src in
         let trace = Trace.create () in
         let params =
           { Qac_anneal.Sa.default_params with
             Qac_anneal.Sa.num_reads = 50;
             num_sweeps = 2000 }
         in
         let r =
           P.run t ~trace ~timeout_ms:0.0 ~solver:(P.Sa params) ~target:P.Logical
         in
         Alcotest.(check bool) "result flagged" true r.P.timed_out;
         Alcotest.(check int) "trace counter" 1 (counter_exn trace "solve" "timed-out");
         Alcotest.(check bool) "best-so-far solutions kept" true
           (r.P.solutions <> []));
    Alcotest.test_case "run without timeout stays unflagged" `Quick (fun () ->
        let t = P.compile mult_src in
        let trace = Trace.create () in
        let params =
          { Qac_anneal.Sa.default_params with
            Qac_anneal.Sa.num_reads = 10;
            num_sweeps = 30 }
        in
        let r = P.run t ~trace ~solver:(P.Sa params) ~target:P.Logical in
        Alcotest.(check bool) "not flagged" false r.P.timed_out;
        Alcotest.(check int) "trace counter" 0 (counter_exn trace "solve" "timed-out"));
  ]
