(** Allocation bounds on the served path.  A served job's minor-heap words
    cost every serving domain a share of each stop-the-world minor
    collection, so the per-job word counts are pinned here.

    [Gc.minor_words] counts the calling domain's allocations exactly, and
    for a fixed build the count is the same on every run.  Each bound is
    the figure measured when it was set plus 25% headroom; the figure is
    in the comment next to it, with what the code before the allocation
    work measured, so a bound that starts failing says how far the code
    moved. *)

open Qac_ising
module Sa = Qac_anneal.Sa
module Sampler = Qac_anneal.Sampler
module Tiler = Qac_embed.Tiler
module Family = Qac_chimera.Family
module Serve = Qac_serve.Serve
module Protocol = Qac_serve.Protocol

(* Words [f] allocates on this domain, measured on a second call so
   first-use memo tables and lazy values are not counted. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let check_bound name ~bound measured =
  if measured > bound then
    Alcotest.failf "%s: %.2f words, bound %.2f" name measured bound

let pinned_multiplier () =
  let module P = Qac_core.Pipeline in
  let src =
    "module mult (a, b, p); input [3:0] a; input [3:0] b; output [7:0] p;\n\
     assign p = a * b; endmodule"
  in
  (P.assemble_with_pins ~pins:[ ("p", 143) ] (P.compile src)).Qac_qmasm.Assemble.problem

let sa_params = { Sa.default_params with Sa.num_reads = 64; num_sweeps = 100; seed = 42 }

(* Random 3-SAT on 8 variables, 20 clauses: about 20 spins compiled. *)
let sat_problem seed =
  let rng = Random.State.make [| seed |] in
  let b = Buffer.create 256 in
  Buffer.add_string b "p cnf 8 20\n";
  for _ = 1 to 20 do
    for _ = 1 to 3 do
      let v = 1 + Random.State.int rng 8 in
      Printf.bprintf b "%d " (if Random.State.bool rng then v else -v)
    done;
    Buffer.add_string b "0\n"
  done;
  (Qac_sat.Compile.compile (Qac_sat.Dimacs.parse (Buffer.contents b))).Qac_sat.Compile.problem

(* Random SAT jobs placed on Pegasus-6, shared by the tiler cases. *)
let batch_jobs = 4

let pegasus_batch =
  lazy
    (let fam = Family.of_topology (Qac_chimera.Pegasus.create 6) in
     let params =
       { Tiler.default_params with
         Tiler.embed_params = Some { Qac_embed.Cmr.default_params with tries = 4 } }
     in
     let jobs = Array.init batch_jobs sat_problem in
     let ladders = Tiler.ladders ~params fam jobs in
     let placed =
       Array.to_list (Tiler.place ~params fam jobs ladders).Tiler.outcomes
       |> List.filter_map (function Tiler.Placed p -> Some p | _ -> None)
     in
     if List.length placed <> batch_jobs then failwith "pegasus_batch: a job was not placed";
     (fam, params, jobs, ladders, placed))

let per_job w = w /. float_of_int batch_jobs

let suite =
  [ (* 7.98 words per spin-read (23.0 before): the read arrays, the greedy
       polish's boxed deltas and the response.  The sweeps add nothing. *)
    Alcotest.test_case "Sa.sample words per spin-read, 4x4 multiplier" `Quick (fun () ->
        let p = pinned_multiplier () in
        let words = minor_words (fun () -> Sa.sample ~params:sa_params p) in
        check_bound "words per spin-read" ~bound:10.0
          (words /. float_of_int (p.Problem.num_vars * sa_params.Sa.num_reads)));
    (* 3.68 words per spin (64.0 before): one list cell per spin around a
       shared [Num], digits written straight into the buffer. *)
    Alcotest.test_case "Completed reply encoding words per spin" `Quick (fun () ->
        let response = Sa.sample ~params:sa_params (pinned_multiplier ()) in
        let spins =
          List.fold_left
            (fun acc (s : Sampler.sample) -> acc + Array.length s.Sampler.spins)
            0 response.Sampler.samples
        in
        let reply =
          Protocol.Completed
            { Serve.id = "j"; status = Serve.Done; response = Some response; batch = 0;
              wait_seconds = 0.0; solve_seconds = 0.0 }
        in
        let words =
          minor_words (fun () -> Protocol.json_to_string (Protocol.reply_to_json reply))
        in
        check_bound "words per spin" ~bound:4.6 (words /. float_of_int spins));
    (* Four SAT jobs on Pegasus-6: 5207 words per placed job (13206
       before), most of it re-verifying the cached embedding and building
       the local block's physical problem. *)
    Alcotest.test_case "Tiler.place words per job, Pegasus" `Quick (fun () ->
        let fam, params, jobs, ladders, _ = Lazy.force pegasus_batch in
        check_bound "Tiler.place words per job" ~bound:6500.0
          (per_job (minor_words (fun () -> Tiler.place ~params fam jobs ladders))));
    (* The same jobs solved with the solver's response already computed,
       so only compaction and unembedding count: 3678 words per job (7595
       before). *)
    Alcotest.test_case "Tiler.solve_placed words per job, Pegasus" `Quick (fun () ->
        let _, _, _, _, placed = Lazy.force pegasus_batch in
        let solve c =
          Sa.sample ~params:{ Sa.default_params with Sa.num_reads = 16; num_sweeps = 10; seed = 3 } c
        in
        let canned =
          List.map (fun (p : Tiler.placed) -> solve (fst (Qac_embed.Embedding.compact p.Tiler.physical)))
            placed
        in
        check_bound "Tiler.solve_placed words per job" ~bound:4600.0
          (per_job
             (minor_words (fun () ->
                  List.iter2 (fun p r -> ignore (Tiler.solve_placed ~solver:(fun _ -> r) p)) placed
                    canned)))) ]
