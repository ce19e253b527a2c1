(* [qacbench compare A.json ... -- B.json ...]: A is the parent's set of
   records, B the change's.  One row per workload and metric with each
   side's median and quartiles and a verdict by the bound BENCHMARK.json
   fixes:

   - unresolved: either side's spread (quartile distance over median) is
     wider than the bound, unless every B run beats every A run;
   - worse: B's median is worse than A's by more than the bound;
   - better: at least ten pairs (runs paired in seed order), B wins at
     least nine tenths of them, and the medians differ by more than A's
     quartile distance;
   - within bound: anything else.

   End-to-end rows come from untraced records; per-layer rows, which have
   no bound, from traced ones.  Exits 1 when any row is worse or
   unresolved, or any record failed a validity guard. *)

module R = Report

let verdict (s : R.spec) va vb =
  let qa1, ma, qa3 = R.quartiles va and qb1, mb, qb3 = R.quartiles vb in
  let beats x y = if s.R.higher_is_better then x > y else x < y in
  let spread q1 q3 med = R.ratio (q3 -. q1) (Float.abs med) in
  let n = min (List.length va) (List.length vb) in
  let take l = List.filteri (fun i _ -> i < n) l in
  let wins = List.length (List.filter Fun.id (List.map2 beats (take vb) (take va))) in
  let claim =
    n >= 10 && float_of_int wins >= 0.9 *. float_of_int n && Float.abs (mb -. ma) > qa3 -. qa1 && beats mb ma
  in
  let every_b_beats_every_a = List.for_all (fun b -> List.for_all (beats b) va) vb in
  let worse_by = R.ratio (if s.R.higher_is_better then ma -. mb else mb -. ma) (Float.abs ma) in
  let v =
    match s.R.bound with
    | None -> if claim then "better" else "-"
    | Some bound ->
      if (spread qa1 qa3 ma > bound || spread qb1 qb3 mb > bound) && not every_b_beats_every_a then
        "unresolved"
      else if worse_by > bound then "worse"
      else if claim then "better"
      else "within bound"
  in
  ((qa1, ma, qa3), (qb1, mb, qb3), wins, n, v)

let main ~benchmark args =
  let contract = R.load_contract benchmark in
  let rec split acc = function
    | [] -> (List.rev acc, [])
    | "--" :: tl -> (List.rev acc, tl)
    | x :: tl -> split (x :: acc) tl
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then begin
    prerr_endline "usage: qacbench compare A.json ... -- B.json ...";
    2
  end
  else begin
    let a = List.map R.load_record a_files and b = List.map R.load_record b_files in
    let bad = ref 0 in
    List.iter2
      (fun file (r : R.saved) ->
         if not r.R.s_valid then begin
           incr bad;
           Printf.printf "invalid run (its load generator fell behind): %s\n" file
         end)
      (a_files @ b_files) (a @ b);
    Printf.printf "%-15s %-28s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric" "A median"
      "A quartiles" "B median" "B quartiles" "change" "wins" "verdict";
    let rows ~traced specs values workload =
      let side recs =
        List.filter (fun (r : R.saved) -> r.R.s_workload = workload && r.R.s_traced = traced) recs
        |> List.stable_sort (fun (x : R.saved) y -> compare x.R.s_seed y.R.s_seed)
      in
      let ra = side a and rb = side b in
      List.iter
        (fun (s : R.spec) ->
           let pick recs = List.filter_map (fun r -> List.assoc_opt s.R.sname (values r)) recs in
           match (pick ra, pick rb) with
           | [], _ | _, [] -> ()
           | va, vb ->
             let (qa1, ma, qa3), (qb1, mb, qb3), wins, n, v = verdict s va vb in
             if v = "worse" || v = "unresolved" then incr bad;
             Printf.printf "%-15s %-28s %12.6g [%11.6g %11.6g] %12.6g [%11.6g %11.6g] %+7.2f%% %3d/%-2d  %s\n"
               workload s.R.sname ma qa1 qa3 mb qb1 qb3 (100.0 *. R.ratio (mb -. ma) (Float.abs ma)) wins n v)
        specs
    in
    List.iter
      (fun w ->
         rows ~traced:false contract.R.end_to_end (fun r -> r.R.s_metrics) w;
         rows ~traced:true contract.R.per_layer (fun r -> r.R.s_layers) w)
      contract.R.workloads;
    if !bad > 0 then 1 else 0
  end
