(** Common sampler types: all solvers return a [response], mirroring how
    qmasm "can run a program arbitrarily many times and report statistics on
    the results" (section 4.3). *)

open Qac_ising

type sample = {
  spins : Problem.spin array;
  energy : float;
  num_occurrences : int;
}

type response = {
  samples : sample list;  (** distinct configurations, ascending energy *)
  num_reads : int;
  elapsed_seconds : float;
  timed_out : bool;  (** the solver hit its deadline and returned best-so-far *)
}

(* One byte per spin: the dedup key (bytes compare/hash without the
   per-element boxing an [int list] key pays). *)
let pack spins =
  Bytes.init (Array.length spins) (fun i -> if spins.(i) > 0 then '\001' else '\000')

let unpack bytes =
  Array.init (Bytes.length bytes) (fun i -> if Bytes.get bytes i = '\001' then 1 else -1)

let sorted_samples tbl =
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b ->
      match compare a.energy b.energy with
      | 0 -> compare a.spins b.spins
      | c -> c)

(** Aggregate reads that already carry occurrence counts (bit-packed blocks
    and composite post-processors produce counted reads): counts for equal
    configurations sum {e before} the energy sort, so a 64-lane block that
    froze into one configuration contributes one sample with
    [num_occurrences = 64], not 64 singleton samples. *)
let response_of_counted_reads ?(elapsed_seconds = 0.0) ?(timed_out = false) reads =
  let tbl = Hashtbl.create 64 in
  let num_reads = ref 0 in
  List.iter
    (fun (spins, energy, count) ->
       if count < 1 then invalid_arg "Sampler.response_of_counted_reads: count < 1";
       num_reads := !num_reads + count;
       let key = pack spins in
       match Hashtbl.find_opt tbl key with
       | Some (sample : sample) ->
         Hashtbl.replace tbl key
           { sample with num_occurrences = sample.num_occurrences + count }
       | None ->
         Hashtbl.add tbl key { spins = Array.copy spins; energy; num_occurrences = count })
    reads;
  { samples = sorted_samples tbl; num_reads = !num_reads; elapsed_seconds; timed_out }

(** Aggregate reads whose energies the solver already tracked (e.g. via
    [State.energy]): no re-evaluation of the Hamiltonian per read. *)
let response_of_evaluated_reads ?elapsed_seconds ?timed_out reads =
  response_of_counted_reads ?elapsed_seconds ?timed_out
    (List.map (fun (spins, energy) -> (spins, energy, 1)) reads)

(** Aggregate raw reads into a response: duplicates are merged with
    occurrence counts, samples sorted by energy then configuration. *)
let response_of_reads problem ?elapsed_seconds ?timed_out reads =
  response_of_evaluated_reads ?elapsed_seconds ?timed_out
    (List.map (fun spins -> (spins, Problem.energy problem spins)) reads)

let best response =
  match response.samples with
  | [] -> invalid_arg "Sampler.best: empty response"
  | s :: _ -> s

let num_distinct response = List.length response.samples

let success_probability response ~target_energy =
  if response.num_reads = 0 then 0.0
  else begin
    let hits =
      List.fold_left
        (fun acc s -> if s.energy <= target_energy +. 1e-9 then acc + s.num_occurrences else acc)
        0 response.samples
    in
    float_of_int hits /. float_of_int response.num_reads
  end

let time_to_solution ?(confidence = 0.99) response ~target_energy =
  let p = success_probability response ~target_energy in
  if p <= 0.0 then None
  else if p >= 1.0 then Some (response.elapsed_seconds /. float_of_int response.num_reads)
  else begin
    let per_read = response.elapsed_seconds /. float_of_int response.num_reads in
    let reads_needed = log (1.0 -. confidence) /. log (1.0 -. p) in
    Some (per_read *. Float.max 1.0 reads_needed)
  end

(** Merge responses from several solver invocations: occurrence counts add
    directly (no re-materialized per-read lists, no energy re-evaluation). *)
let merge _problem responses =
  let tbl = Hashtbl.create 64 in
  let num_reads = ref 0 in
  List.iter
    (fun r ->
       num_reads := !num_reads + r.num_reads;
       List.iter
         (fun s ->
            let key = pack s.spins in
            match Hashtbl.find_opt tbl key with
            | Some existing ->
              Hashtbl.replace tbl key
                { existing with
                  num_occurrences = existing.num_occurrences + s.num_occurrences }
            | None -> Hashtbl.add tbl key s)
         r.samples)
    responses;
  let elapsed = List.fold_left (fun acc r -> acc +. r.elapsed_seconds) 0.0 responses in
  let timed_out = List.exists (fun r -> r.timed_out) responses in
  { samples = sorted_samples tbl; num_reads = !num_reads; elapsed_seconds = elapsed; timed_out }

let pp_histogram ?(buckets = 10) fmt response =
  match response.samples with
  | [] -> Format.fprintf fmt "(no samples)@."
  | samples ->
    let lo = (List.hd samples).energy in
    let hi =
      List.fold_left (fun acc s -> Float.max acc s.energy) lo samples
    in
    let span = if hi -. lo < 1e-12 then 1.0 else hi -. lo in
    let counts = Array.make buckets 0 in
    List.iter
      (fun s ->
         let idx =
           min (buckets - 1)
             (int_of_float (float_of_int buckets *. (s.energy -. lo) /. span))
         in
         counts.(idx) <- counts.(idx) + s.num_occurrences)
      samples;
    let peak = Array.fold_left max 1 counts in
    Format.fprintf fmt "energy histogram (%d reads, %d distinct):@." response.num_reads
      (List.length samples);
    Array.iteri
      (fun i count ->
         let from = lo +. (span *. float_of_int i /. float_of_int buckets) in
         let upto = lo +. (span *. float_of_int (i + 1) /. float_of_int buckets) in
         let bar = String.make (count * 40 / peak) '#' in
         Format.fprintf fmt "  [%8.2f, %8.2f) %6d %s@." from upto count bar)
      counts
