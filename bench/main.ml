(** The paper's experiments.

    - [dune exec bench/main.exe] runs every experiment E1-E15 (DESIGN.md's
      index of the paper's tables and figures) and the extensions ext1-ext9,
      printing paper-vs-measured rows.
    - [dune exec bench/main.exe -- e12 e14] runs a subset.

    [test/experiments.t] pins the output of every experiment but E14 with
    its timings masked.  Performance is measured by qacbench
    ([bench/suite]), not here. *)

let run_experiments ids =
  let selected =
    if ids = [] then Experiments.all
    else
      List.filter_map
        (fun id ->
           match List.find_opt (fun (eid, _, _) -> eid = id) Experiments.all with
           | Some e -> Some e
           | None ->
             Printf.eprintf "unknown experiment %s\n" id;
             None)
        ids
  in
  print_endline "Reproduction of 'Targeting Classical Code to a Quantum Annealer' (ASPLOS'19)";
  print_endline "Absolute numbers come from a classical substrate; compare shapes, not values.";
  List.iter
    (fun (_, _, run) ->
       let t0 = Unix.gettimeofday () in
       run ();
       Printf.printf "[%.1fs]\n" (Unix.gettimeofday () -. t0))
    selected

let () = run_experiments (List.tl (Array.to_list Sys.argv))
