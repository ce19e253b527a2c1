(** Log-bucketed latency histograms: bucketing, quantile accuracy against
    known distributions, merging, and the bounded-relative-error contract. *)

module Hist = Qac_diag.Hist

let bucket_ratio = Hist.bucket_ratio

let basic_tests =
  [ Alcotest.test_case "empty histogram reports zeros" `Quick (fun () ->
        let h = Hist.create () in
        Alcotest.(check int) "count" 0 (Hist.count h);
        Alcotest.(check (float 0.0)) "sum" 0.0 (Hist.sum h);
        Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h);
        Alcotest.(check (float 0.0)) "max" 0.0 (Hist.max_seen h);
        Alcotest.(check (float 0.0)) "p50" 0.0 (Hist.p50 h);
        Alcotest.(check (float 0.0)) "p99" 0.0 (Hist.p99 h);
        Alcotest.(check bool) "only the +Inf entry" true
          (Hist.cumulative h = [ (infinity, 0) ]));
    Alcotest.test_case "count, sum, mean, max track observations" `Quick
      (fun () ->
         let h = Hist.create () in
         List.iter (Hist.add h) [ 0.001; 0.002; 0.004; 0.1 ];
         Alcotest.(check int) "count" 4 (Hist.count h);
         Alcotest.(check (float 1e-12)) "sum" 0.107 (Hist.sum h);
         Alcotest.(check (float 1e-12)) "mean" (0.107 /. 4.0) (Hist.mean h);
         Alcotest.(check (float 0.0)) "max exact" 0.1 (Hist.max_seen h));
    Alcotest.test_case "quantile rejects q outside [0, 1]" `Quick (fun () ->
        let h = Hist.create () in
        Hist.add h 1.0;
        Alcotest.check_raises "q = -0.1"
          (Invalid_argument "Hist.quantile: q outside [0, 1]") (fun () ->
            ignore (Hist.quantile h (-0.1)));
        Alcotest.check_raises "q = 1.5"
          (Invalid_argument "Hist.quantile: q outside [0, 1]") (fun () ->
            ignore (Hist.quantile h 1.5)));
    Alcotest.test_case "clear resets, copy is independent" `Quick (fun () ->
        let h = Hist.create () in
        List.iter (Hist.add h) [ 0.01; 0.02 ];
        let c = Hist.copy h in
        Hist.clear h;
        Alcotest.(check int) "cleared" 0 (Hist.count h);
        Alcotest.(check int) "copy untouched" 2 (Hist.count c);
        Hist.add c 0.03;
        Alcotest.(check int) "original still empty" 0 (Hist.count h)) ]

(* A reported quantile's bucket representative is within one bucket ratio
   of the true value — the whole point of geometric bucketing. *)
let accuracy_tests =
  [ Alcotest.test_case "quantiles of a uniform grid are within one bucket"
      `Quick (fun () ->
          let h = Hist.create () in
          (* 1..1000 ms as seconds. *)
          for i = 1 to 1000 do
            Hist.add h (float_of_int i /. 1000.0)
          done;
          let ratio = bucket_ratio h in
          List.iter
            (fun q ->
               let true_q = q in  (* uniform on (0, 1]: quantile q = q *)
               let got = Hist.quantile h q in
               Alcotest.(check bool)
                 (Printf.sprintf "q=%g within ratio (got %g, true %g)" q got true_q)
                 true
                 (got >= true_q /. ratio -. 1e-9 && got <= true_q *. ratio +. 1e-9))
            [ 0.25; 0.5; 0.9; 0.99 ]);
    Alcotest.test_case "bimodal distribution: p50 in the fast mode, p99 in the slow"
      `Quick (fun () ->
          let h = Hist.create () in
          (* 98 fast requests at ~1 ms, 2 slow at ~1 s. *)
          for _ = 1 to 98 do Hist.add h 0.001 done;
          for _ = 1 to 2 do Hist.add h 1.0 done;
          let ratio = bucket_ratio h in
          Alcotest.(check bool) "p50 ~ 1 ms" true
            (Hist.p50 h <= 0.001 *. ratio && Hist.p50 h >= 0.001 /. ratio);
          Alcotest.(check bool) "p90 ~ 1 ms" true
            (Hist.p90 h <= 0.001 *. ratio && Hist.p90 h >= 0.001 /. ratio);
          Alcotest.(check bool) "p99 ~ 1 s" true
            (Hist.p99 h <= 1.0 *. ratio && Hist.p99 h >= 1.0 /. ratio));
    Alcotest.test_case "monotone: quantiles never decrease in q" `Quick
      (fun () ->
         let h = Hist.create () in
         let seed = ref 123456789 in
         for _ = 1 to 500 do
           (* xorshift; spread over ~4 decades *)
           seed := !seed lxor (!seed lsl 13);
           seed := !seed lxor (!seed lsr 7);
           seed := !seed lxor (!seed lsl 17);
           seed := !seed land 0x3FFFFFFF;
           Hist.add h (1e-4 *. (1.0 +. float_of_int (!seed mod 9999)))
         done;
         let prev = ref 0.0 in
         for i = 0 to 100 do
           let v = Hist.quantile h (float_of_int i /. 100.0) in
           Alcotest.(check bool)
             (Printf.sprintf "q=%d%% >= q=%d%%" i (i - 1))
             true (v >= !prev);
           prev := v
         done);
    Alcotest.test_case "p0 is the smallest observation's bucket, p100 the largest"
      `Quick (fun () ->
          let h = Hist.create () in
          List.iter (Hist.add h) [ 0.003; 0.03; 0.3 ];
          let ratio = bucket_ratio h in
          Alcotest.(check bool) "p0 near 3 ms" true
            (Hist.quantile h 0.0 <= 0.003 *. ratio);
          Alcotest.(check bool) "p100 near 300 ms" true
            (Hist.quantile h 1.0 >= 0.3 /. ratio)) ]

let range_tests =
  [ Alcotest.test_case "underflow and overflow land in edge buckets" `Quick
      (fun () ->
         let h = Hist.create ~min_value:1e-3 ~max_value:1e3 () in
         Hist.add h 1e-9;
         Hist.add h 1e9;
         Alcotest.(check int) "both counted" 2 (Hist.count h);
         Alcotest.(check (float 0.0)) "max exact despite clamping" 1e9
           (Hist.max_seen h);
         (match Hist.cumulative h with
          | [ (le0, n0); (le1, n1) ] ->
            (* Edges are reconstructed through exp/log, so compare with
               relative tolerance. *)
            let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
            Alcotest.(check bool) "underflow upper edge ~ 1e-3" true (close le0 1e-3);
            Alcotest.(check int) "underflow count" 1 n0;
            Alcotest.(check bool) "overflow closes at +Inf" true (le1 = infinity);
            Alcotest.(check int) "+Inf counts both" 2 n1
          | _ -> Alcotest.fail "expected exactly the two edge buckets"));
    Alcotest.test_case "occupied buckets partition counts" `Quick (fun () ->
        let h = Hist.create () in
        for i = 1 to 100 do
          Hist.add h (0.0001 *. float_of_int i)
        done;
        let entries = Hist.cumulative h in
        Alcotest.(check bool) "closes with +Inf = total" true
          (List.nth entries (List.length entries - 1) = (infinity, 100));
        ignore
          (List.fold_left
             (fun (prev_le, prev_n) (le, n) ->
                Alcotest.(check bool) "edges ascend" true (le > prev_le);
                Alcotest.(check bool) "counts never fall" true (n >= prev_n);
                (le, n))
             (0.0, 0) entries));
    Alcotest.test_case "an overflow observation adds no second +Inf entry" `Quick
      (fun () ->
         let h = Hist.create () in
         List.iter (Hist.add h) [ 0.004; 2e4 ];
         let entries = Hist.cumulative h in
         Alcotest.(check int) "one +Inf entry" 1
           (List.length (List.filter (fun (le, _) -> le = infinity) entries));
         Alcotest.(check bool) "it closes the list and counts both" true
           (List.nth entries (List.length entries - 1) = (infinity, 2))) ]

let merge_tests =
  [ Alcotest.test_case "merge equals adding everything to one histogram"
      `Quick (fun () ->
          let a = Hist.create () and b = Hist.create () and all = Hist.create () in
          for i = 1 to 50 do
            let v = 0.001 *. float_of_int i in
            Hist.add (if i mod 2 = 0 then a else b) v;
            Hist.add all v
          done;
          Hist.merge_into a b;
          Alcotest.(check int) "count" (Hist.count all) (Hist.count a);
          Alcotest.(check (float 1e-12)) "sum" (Hist.sum all) (Hist.sum a);
          Alcotest.(check (float 0.0)) "max" (Hist.max_seen all) (Hist.max_seen a);
          List.iter
            (fun q ->
               Alcotest.(check (float 0.0))
                 (Printf.sprintf "quantile %g" q)
                 (Hist.quantile all q) (Hist.quantile a q))
            [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]);
    Alcotest.test_case "merge rejects mismatched layouts" `Quick (fun () ->
        let a = Hist.create () in
        let b = Hist.create ~buckets_per_decade:5 () in
        Alcotest.check_raises "layout mismatch"
          (Invalid_argument "Hist.merge_into: bucket layouts differ") (fun () ->
            Hist.merge_into a b)) ]

let suite = basic_tests @ accuracy_tests @ range_tests @ merge_tests
