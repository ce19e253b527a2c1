(** Annealing schedules: inverse-temperature (beta) ramps.

    The default range is derived from the problem, following the approach of
    D-Wave's classical neal sampler: the hot beta makes even the stiffest
    spin flip with probability ~1/2; the cold beta makes the weakest
    coefficient significant (acceptance ~1%). *)

open Qac_ising

type t = {
  beta_min : float;
  beta_max : float;
  kind : [ `Geometric | `Linear ];
}

let default_range (p : Problem.t) =
  let n = p.Problem.num_vars in
  if n = 0 then (0.1, 1.0)
  else begin
    (* Stiffest spin: the largest total field any spin can feel. *)
    let max_field = ref 0.0 in
    let min_coeff = ref infinity in
    for i = 0 to n - 1 do
      let field = ref (Float.abs p.Problem.h.(i)) in
      Problem.iter_neighbors p i (fun _ j -> field := !field +. Float.abs j);
      max_field := Float.max !max_field !field
    done;
    Array.iter
      (fun v -> if v <> 0.0 then min_coeff := Float.min !min_coeff (Float.abs v))
      p.Problem.h;
    Array.iter
      (fun (_, v) -> if v <> 0.0 then min_coeff := Float.min !min_coeff (Float.abs v))
      p.Problem.couplers;
    let max_field = if !max_field = 0.0 then 1.0 else !max_field in
    let min_coeff = if !min_coeff = infinity then 1.0 else !min_coeff in
    (log 2.0 /. (2.0 *. max_field), log 100.0 /. (2.0 *. min_coeff))
  end

let create ?(kind = `Geometric) ?beta_min ?beta_max p =
  let auto_min, auto_max = default_range p in
  let beta_min = Option.value beta_min ~default:auto_min in
  let beta_max = Option.value beta_max ~default:auto_max in
  if beta_min <= 0.0 || beta_max < beta_min then invalid_arg "Schedule.create: bad range";
  { beta_min; beta_max; kind }

(** [beta schedule ~step ~num_steps] is the inverse temperature at sweep
    [step] of [num_steps]. *)
let beta t ~step ~num_steps =
  if num_steps <= 1 then t.beta_max
  else begin
    let fraction = float_of_int step /. float_of_int (num_steps - 1) in
    match t.kind with
    | `Linear -> t.beta_min +. (fraction *. (t.beta_max -. t.beta_min))
    | `Geometric -> t.beta_min *. ((t.beta_max /. t.beta_min) ** fraction)
  end

(* --- Acceptance threshold rows ------------------------------------------------ *)

(* Integer scale of the threshold tables: draws and thresholds live in
   [0, 2^61), the widest power-of-two range that still fits a native int
   with headroom for the comparison. *)
let acceptance_scale = 1 lsl 61

type acceptance = {
  num_steps : int;
  delta_unit : float;
  width : int;
  factors : float array;
}

(* Row [step]: thresholds.(k) = round(exp(-beta * delta_unit * k) * 2^61),
   the acceptance threshold for an uphill move of k quantization levels.
   Built iteratively (t_k = t_{k-1} * a, one multiply per level from the
   step's factor [a]) and cut at the first zero entry: a level at or beyond
   the returned length is an automatic rejection, which subsumes the
   beta*delta > 30 auto-reject cutoff of the scalar kernel (exp(-43) * 2^61
   rounds to 0, and 43 > 30). *)
let fill_row acc ~step row =
  if Array.length row < acc.width then invalid_arg "Schedule.fill_row: row too short";
  let a = acc.factors.(step) in
  Array.unsafe_set row 0 acceptance_scale;
  let v = ref (float_of_int acceptance_scale) and k = ref 1 and live = ref true in
  while !live && !k < acc.width do
    v := !v *. a;
    let th = int_of_float (Float.round !v) in
    if th <= 0 then live := false
    else begin
      Array.unsafe_set row !k th;
      incr k
    end
  done;
  !k

let acceptance_tables t ~num_steps ~delta_unit ~max_level =
  if delta_unit <= 0.0 then invalid_arg "Schedule.acceptance_tables: delta_unit <= 0";
  if max_level < 0 then invalid_arg "Schedule.acceptance_tables: max_level < 0";
  let factors =
    Array.init num_steps (fun step -> exp (-.beta t ~step ~num_steps *. delta_unit))
  in
  { num_steps; delta_unit; width = max_level + 1; factors }
