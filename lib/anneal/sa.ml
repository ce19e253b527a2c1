open Qac_ising

type params = {
  num_reads : int;
  num_sweeps : int;
  beta_min : float option;
  beta_max : float option;
  schedule : [ `Geometric | `Linear ];
  greedy_postprocess : bool;
  seed : int;
}

let default_params =
  { num_reads = 100;
    num_sweeps = 200;
    beta_min = None;
    beta_max = None;
    schedule = `Geometric;
    greedy_postprocess = true;
    seed = 42 }

(* Deadline checks sit between sweeps (a sweep is O(vars * degree), so one
   [gettimeofday] per sweep is noise).  [expired None] is a constant-false
   branch, keeping the untimed hot path unchanged. *)
let expired deadline =
  match deadline with
  | None -> false
  | Some d -> Unix.gettimeofday () > d

(* The bit-parallel read loop: reads advance in packed blocks of up to 64
   lanes, one derived block seed per block.  Greedy polish and energy
   evaluation ride on the float [State] per lane, so the response carries
   incrementally-tracked energies. *)
let sample_bitpar ~params ?deadline (p : Problem.t) =
  let schedule =
    Schedule.create ~kind:params.schedule ?beta_min:params.beta_min
      ?beta_max:params.beta_max p
  in
  let q = Bitpar.quantize p in
  let acceptance = Bitpar.acceptance q schedule ~num_sweeps:params.num_sweeps in
  let rng = Rng.create params.seed in
  let start = Unix.gettimeofday () in
  let timed_out = ref false in
  let reads = ref [] in
  let remaining = ref params.num_reads in
  while !remaining > 0 && not !timed_out do
    let lanes = min Bitpar.max_lanes !remaining in
    let block_seed = Rng.next_seed rng in
    let r = Bitpar.anneal_block ?deadline q ~acceptance ~lanes ~block_seed in
    if r.Bitpar.timed_out then timed_out := true;
    Array.iter
      (fun spins ->
         let st = State.make p spins in
         if params.greedy_postprocess && not (expired deadline) then
           ignore (Greedy.descend_state st);
         reads := (State.spins st, State.energy st, 1) :: !reads)
      r.Bitpar.reads;
    remaining := !remaining - lanes
  done;
  let elapsed_seconds = Unix.gettimeofday () -. start in
  Sampler.response_of_counted_reads ~elapsed_seconds ~timed_out:!timed_out
    (List.rev !reads)

let sample ?(params = default_params) ?deadline (p : Problem.t) =
  if p.Problem.num_vars = 0 then
    Sampler.response_of_reads p (List.init params.num_reads (fun _ -> [||]))
  else sample_bitpar ~params ?deadline p
