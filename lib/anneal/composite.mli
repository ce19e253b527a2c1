(** Composable sample post-processors (the dwave-ocean "composite" idiom):
    improve a solver's response without touching the solver.  All
    composites preserve the {!Sampler.response} invariants — samples stay
    aggregated, sorted by (energy, configuration), and [num_reads] is
    conserved. *)

type postprocess = [ `None | `Polish | `Gauge ]

val polish :
  ?deadline:float -> Qac_ising.Problem.t -> Sampler.response -> Sampler.response
(** Steepest-descend every sample to its local minimum ({!Greedy});
    configurations that polish into the same minimum merge, with summed
    occurrence counts.  [deadline] (absolute instant) is checked before
    each sample's descent — samples not reached in time pass through
    unpolished. *)

val gauge_transform :
  seed:int -> Qac_ising.Problem.t -> Qac_ising.Problem.spin array * Qac_ising.Problem.t
(** [(g, p')] where [h' = g_i h_i] and [J' = g_i g_j J_ij]: the energy
    landscape is unchanged up to the relabeling [s -> g . s], and energies
    are bit-identical (every factor is a +-1 multiply). *)

val gauge :
  ?seed:int ->
  Qac_ising.Problem.t ->
  solve:(Qac_ising.Problem.t -> Sampler.response) ->
  Sampler.response
(** Run [solve] on the gauge-transformed problem and map the samples back
    ([s_i -> g_i s_i]); energies carry over exactly. *)

val wrap :
  postprocess:postprocess ->
  ?gauge_seed:int ->
  ?deadline:float ->
  Qac_ising.Problem.t ->
  solve:(Qac_ising.Problem.t -> Sampler.response) ->
  Sampler.response
(** Wire the chosen post-processing around a base solve: [`Gauge]
    transforms the problem before solving, [`Polish] descends the response
    after, [`None] is the identity. *)
