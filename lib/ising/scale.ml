type range = {
  h_min : float;
  h_max : float;
  j_min : float;
  j_max : float;
}

let dwave_2000q = { h_min = -2.0; h_max = 2.0; j_min = -2.0; j_max = 1.0 }
let advantage = { h_min = -4.0; h_max = 4.0; j_min = -1.0; j_max = 1.0 }

let fits range p =
  let tolerance = 1e-9 in
  let ok_h v = v >= range.h_min -. tolerance && v <= range.h_max +. tolerance in
  let ok_j v = v >= range.j_min -. tolerance && v <= range.j_max +. tolerance in
  Array.for_all ok_h p.Problem.h
  && Array.for_all (fun (_, v) -> ok_j v) p.Problem.couplers

(* The largest s such that s*v stays in [lo, hi] for every coefficient v.
   Since lo < 0 < hi for all supported ranges, each v independently bounds s
   by hi/v (v > 0) or lo/v (v < 0). *)
let factor range p =
  let bound lo hi v =
    if v > 0.0 then hi /. v
    else if v < 0.0 then lo /. v
    else infinity
  in
  let s = ref 1.0 in
  Array.iter (fun v -> s := Float.min !s (bound range.h_min range.h_max v)) p.Problem.h;
  Array.iter
    (fun (_, v) -> s := Float.min !s (bound range.j_min range.j_max v))
    p.Problem.couplers;
  if !s <= 0.0 || Float.is_nan !s then 1.0 else !s

let apply range p =
  let s = factor range p in
  if s >= 1.0 then p else Problem.scale p s

(* Ratio of the largest to the smallest nonzero coefficient magnitude.  A
   uniform downscale ([apply]) preserves this ratio, so it measures how much
   analog precision a problem demands of the hardware regardless of range
   fitting — the MaxSAT weight-spread guard compares it against 2^bits. *)
let dynamic_range p =
  let lo = ref infinity and hi = ref 0.0 in
  let see v =
    let m = Float.abs v in
    if m > 0.0 then begin
      if m < !lo then lo := m;
      if m > !hi then hi := m
    end
  in
  Array.iter see p.Problem.h;
  Array.iter (fun (_, v) -> see v) p.Problem.couplers;
  if !hi = 0.0 then 1.0 else !hi /. !lo

let quantize ~bits p =
  if bits < 1 then invalid_arg "Scale.quantize: bits must be >= 1";
  let levels = float_of_int ((1 lsl bits) - 1) in
  let extent =
    Float.max (Problem.max_abs_h p)
      (Float.max (Float.abs (Problem.max_j p)) (Float.abs (Problem.min_j p)))
  in
  if extent = 0.0 then p
  else begin
    let step = 2.0 *. extent /. levels in
    let round v = Float.round (v /. step) *. step in
    Problem.create ~num_vars:p.Problem.num_vars
      ~h:(Array.map round p.Problem.h)
      ~j:(Array.to_list (Array.map (fun (key, v) -> (key, round v)) p.Problem.couplers))
      ~offset:p.Problem.offset ()
  end
