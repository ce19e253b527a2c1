(** Composable sample post-processors (dwave-ocean "composite" idiom): each
    takes a base solve and improves the response without touching the
    solver itself.  [polish] steepest-descends every returned configuration
    to its local minimum; [gauge] runs the solve under a spin-reversal
    transform, which decorrelates solver bias from the problem's sign
    structure.  Both preserve the {!Sampler.response} invariants: samples
    stay aggregated (equal configurations merge, counts sum), sorted by
    (energy, configuration), with [num_reads] conserved. *)

open Qac_ising

type postprocess = [ `None | `Polish | `Gauge ]

let expired deadline =
  match deadline with
  | None -> false
  | Some d -> Unix.gettimeofday () > d

(* Descend every distinct sample to its local minimum.  Counts follow their
   configuration, so distinct reads that polish into the same minimum merge
   into one sample with the summed occurrences.  The deadline is checked
   before each sample's descent: a response polished under time pressure
   keeps its remaining samples as-is rather than dropping them. *)
let polish ?deadline (p : Problem.t) (r : Sampler.response) =
  if r.Sampler.samples = [] then r
  else begin
    let counted =
      List.map
        (fun (s : Sampler.sample) ->
           if expired deadline then (s.Sampler.spins, s.energy, s.num_occurrences)
           else begin
             let st = State.make p (Array.copy s.Sampler.spins) in
             ignore (Greedy.descend_state st);
             (State.spins st, State.energy st, s.num_occurrences)
           end)
        r.Sampler.samples
    in
    Sampler.response_of_counted_reads ~elapsed_seconds:r.Sampler.elapsed_seconds
      ~timed_out:r.Sampler.timed_out counted
  end

(* The spin-reversal (gauge) transform for [seed]: a +-1 vector [g] with
   [h' = g_i h_i] and [J' = g_i g_j J_ij].  Flipping variable signs this
   way relabels the state space without changing the energy landscape:
   E'(s) = E(g . s) exactly (every factor is a +-1 multiply, so even float
   energies are bit-identical). *)
let gauge_transform ~seed (p : Problem.t) =
  let rng = Rng.create seed in
  let g = Rng.spins rng p.Problem.num_vars in
  let h = Array.mapi (fun i hi -> hi *. float_of_int g.(i)) p.Problem.h in
  let j =
    Array.to_list
      (Array.map
         (fun ((u, v), jv) -> ((u, v), jv *. float_of_int (g.(u) * g.(v))))
         p.Problem.couplers)
  in
  (g, Problem.create ~num_vars:p.Problem.num_vars ~h ~j ())

let default_gauge_seed = 271828

let gauge ?(seed = default_gauge_seed) (p : Problem.t) ~solve =
  if p.Problem.num_vars = 0 then solve p
  else begin
    let g, gp = gauge_transform ~seed p in
    let r = solve gp in
    let counted =
      List.map
        (fun (s : Sampler.sample) ->
           ( Array.mapi (fun i si -> g.(i) * si) s.Sampler.spins,
             s.Sampler.energy,
             s.Sampler.num_occurrences ))
        r.Sampler.samples
    in
    (* Re-aggregate so the (energy, configuration) sort holds for the
       gauge-restored spins. *)
    let restored =
      Sampler.response_of_counted_reads ~elapsed_seconds:r.Sampler.elapsed_seconds
        ~timed_out:r.Sampler.timed_out counted
    in
    if r.Sampler.samples = [] then r else restored
  end

(* Wire a post-processing choice around a base solve.  [`Gauge] transforms
   the problem before solving; [`Polish] descends the response after. *)
let wrap ~(postprocess : postprocess) ?gauge_seed ?deadline (p : Problem.t) ~solve =
  match postprocess with
  | `None -> solve p
  | `Polish -> polish ?deadline p (solve p)
  | `Gauge -> gauge ?seed:gauge_seed p ~solve
