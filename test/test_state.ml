(** Properties of the CSR adjacency and the incremental annealing state:
    O(1) deltas and O(degree) flips must agree with full Hamiltonian
    re-evaluation, and the field/energy caches must survive arbitrary flip
    sequences. *)

open Qac_ising
open Qac_anneal

(* Deterministic random problem from an integer seed: up to 12 vars so the
   checks stay cheap, density varied by the seed. *)
let problem_of_seed seed =
  let rng = Rng.create (seed + 1) in
  let n = 1 + Rng.int rng 12 in
  let density = 0.15 +. (0.7 *. Rng.float rng) in
  let h = Array.init n (fun _ -> (Rng.float rng *. 4.0) -. 2.0) in
  let j = ref [] in
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      if Rng.float rng < density then
        j := ((i, k), (Rng.float rng *. 4.0) -. 2.0) :: !j
    done
  done;
  (Problem.create ~num_vars:n ~h ~j:!j (), rng)

let csr_tests =
  [ Alcotest.test_case "CSR mirrors the coupler list" `Quick (fun () ->
        for seed = 0 to 20 do
          let p, _ = problem_of_seed seed in
          let n = p.Problem.num_vars in
          Alcotest.(check int) "row_start length" (n + 1) (Array.length p.Problem.row_start);
          Alcotest.(check int) "nnz = 2 * couplers"
            (2 * Problem.num_interactions p)
            (Array.length p.Problem.col);
          Alcotest.(check int) "weights parallel to cols"
            (Array.length p.Problem.col) (Array.length p.Problem.weight);
          (* Every CSR entry is the coupler the pair-list records. *)
          for i = 0 to n - 1 do
            Alcotest.(check int) "degree" (p.Problem.row_start.(i + 1) - p.Problem.row_start.(i))
              (Problem.degree p i);
            let prev = ref (-1) in
            Problem.iter_neighbors p i (fun j v ->
                Alcotest.(check bool) "neighbors ascending" true (j > !prev);
                prev := j;
                Alcotest.(check (float 0.0)) "weight = get_j" (Problem.get_j p i j) v)
          done;
          (* And every coupler appears in both endpoint rows. *)
          Array.iter
            (fun ((i, j), v) ->
               let found_in row other =
                 let hit = ref false in
                 Problem.iter_neighbors p row (fun k w ->
                     if k = other then begin
                       hit := true;
                       Alcotest.(check (float 0.0)) "row weight" v w
                     end);
                 !hit
               in
               Alcotest.(check bool) "coupler in row i" true (found_in i j);
               Alcotest.(check bool) "coupler in row j" true (found_in j i))
            p.Problem.couplers
        done);
    Alcotest.test_case "max_j/min_j on an all-negative problem" `Quick (fun () ->
        let p =
          Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
            ~j:[ ((0, 1), -0.5); ((1, 2), -2.0) ]
            ()
        in
        Alcotest.(check (float 0.0)) "max_j" (-0.5) (Problem.max_j p);
        Alcotest.(check (float 0.0)) "min_j" (-2.0) (Problem.min_j p);
        let q =
          Problem.create ~num_vars:3 ~h:[| 0.0; 0.0; 0.0 |]
            ~j:[ ((0, 1), 0.25); ((1, 2), 1.5) ]
            ()
        in
        Alcotest.(check (float 0.0)) "max_j positive" 1.5 (Problem.max_j q);
        Alcotest.(check (float 0.0)) "min_j positive" 0.25 (Problem.min_j q);
        Alcotest.(check (float 0.0)) "empty max_j" 0.0 (Problem.max_j Problem.empty);
        Alcotest.(check (float 0.0)) "empty min_j" 0.0 (Problem.min_j Problem.empty));
  ]

let delta_matches_energy =
  QCheck.Test.make ~name:"State.delta = energy(flip i) - energy" ~count:200
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (pseed, sseed) ->
       let p, _ = problem_of_seed pseed in
       let n = p.Problem.num_vars in
       let rng = Rng.create (sseed + 7) in
       let spins = Rng.spins rng n in
       let st = State.make p (Array.copy spins) in
       let ok = ref true in
       for i = 0 to n - 1 do
         let flipped = Array.copy spins in
         flipped.(i) <- -flipped.(i);
         let expected = Problem.energy p flipped -. Problem.energy p spins in
         if Float.abs (State.delta st i -. expected) > 1e-9 then ok := false;
         (* And against the problem-level O(degree) delta. *)
         if Float.abs (Problem.energy_delta p spins i -. expected) > 1e-9 then ok := false
       done;
       !ok)

let invariants_after_flips =
  QCheck.Test.make ~name:"fields/energy invariants survive flip sequences" ~count:200
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (pseed, fseed) ->
       let p, _ = problem_of_seed pseed in
       let n = p.Problem.num_vars in
       let rng = Rng.create (fseed + 3) in
       let st = State.random p rng in
       (* Arbitrary flips, some repeated, interleaved with invariant checks. *)
       let ok = ref true in
       for step = 1 to 60 do
         State.flip st (Rng.int rng n);
         if step mod 15 = 0 then begin
           let spins = State.spins st in
           if Float.abs (State.energy st -. Problem.energy p spins) > 1e-6 then ok := false;
           for i = 0 to n - 1 do
             if Float.abs (State.field st i -. Problem.local_field p spins i) > 1e-6 then
               ok := false
           done
         end
       done;
       !ok)

let descent_tests =
  [ Alcotest.test_case "descend_state tracks energy through a descent" `Quick (fun () ->
        let p, rng = problem_of_seed 77 in
        let st = State.random p rng in
        let flips = Greedy.descend_state st in
        Alcotest.(check bool) "flips non-negative" true (flips >= 0);
        Alcotest.(check (float 1e-9)) "tracked = recomputed"
          (Problem.energy p (State.spins st))
          (State.energy st);
        for i = 0 to State.num_vars st - 1 do
          Alcotest.(check bool) "local minimum" true (State.delta st i >= -1e-9)
        done);
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let p, rng = problem_of_seed 5 in
        let st = State.random p rng in
        let dup = State.copy st in
        State.flip st 0;
        Alcotest.(check bool) "spins diverge" true
          (State.spins st <> State.spins dup);
        Alcotest.(check (float 1e-9)) "copy energy still exact"
          (Problem.energy p (State.spins dup))
          (State.energy dup));
  ]

let suite =
  csr_tests
  @ [ QCheck_alcotest.to_alcotest delta_matches_energy;
      QCheck_alcotest.to_alcotest invariants_after_flips ]
  @ descent_tests
