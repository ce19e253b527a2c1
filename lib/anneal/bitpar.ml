(** Bit-parallel multi-replica Metropolis kernel (multi-spin coding).

    Up to 64 independent SA replicas ("lanes") advance through one CSR row
    walk at a time: variable [i]'s spin across all lanes packs into one
    64-bit word (two native-int halves, so the hot loop never boxes an
    [int64]), while each lane keeps a small integer local-field
    accumulator.  Couplings quantize to integer levels ([quantize]), which
    turns Metropolis acceptance into an integer compare against the
    sweep's threshold row ({!Schedule.fill_row}) — no [exp] per proposal,
    and a {!Rng.Lanes} draw only for uphill moves that the row has not
    already rejected.

    Lane independence is the load-bearing contract: a lane's trajectory is
    a pure function of (quantized problem, acceptance tables, visit order,
    lane seed).  Lanes share only read-only state, so lane [l] of a packed
    block is bit-identical to {!anneal_lane} run alone with the same
    derived seed — the property test in [test/test_bitpar.ml], and the
    reason a block with 17 live lanes equals the first 17 lanes of a
    64-lane block. *)

open Qac_ising

let max_lanes = 64

(* Lanes 0-31 live in the "lo" native word, 32-63 in "hi": OCaml's int64
   array elements are boxed, so a packed word is stored as two int halves
   and only materialized as an int64 at the API boundary. *)
let half = 32

(* --- Quantization ----------------------------------------------------------- *)

type quantized = {
  problem : Problem.t;
  eps : float;
  qh : int array;
  qweight : int array;
  max_level : int;
}

let default_resolution = 128

let quantize ?(resolution = default_resolution) (p : Problem.t) =
  if resolution < 1 then invalid_arg "Bitpar.quantize: resolution < 1";
  let maxc =
    Float.max (Problem.max_abs_h p)
      (Float.max (Float.abs (Problem.max_j p)) (Float.abs (Problem.min_j p)))
  in
  let eps = if maxc = 0.0 then 1.0 else maxc /. float_of_int resolution in
  let quant v = int_of_float (Float.round (v /. eps)) in
  let qh = Array.map quant p.Problem.h in
  let qweight = Array.map quant p.Problem.weight in
  let max_level = ref 1 in
  for i = 0 to p.Problem.num_vars - 1 do
    let f = ref (abs qh.(i)) in
    for k = p.Problem.row_start.(i) to p.Problem.row_start.(i + 1) - 1 do
      f := !f + abs qweight.(k)
    done;
    if !f > !max_level then max_level := !f
  done;
  { problem = p; eps; qh; qweight; max_level = !max_level }

let delta_unit q = 2.0 *. q.eps

let acceptance q schedule ~num_sweeps =
  Schedule.acceptance_tables schedule ~num_steps:num_sweeps
    ~delta_unit:(delta_unit q) ~max_level:q.max_level

(* --- Seed derivation --------------------------------------------------------- *)

(* Per-block plan: the visit order (shared by every lane of the block, one
   shuffle per block — sequential-scan SA, as in D-Wave's neal, where a
   per-sweep reshuffle costs more than the proposals it reorders) comes
   first from the block rng,
   then one derived seed per lane.  Each lane then expands its own seed
   into initial spins plus a {!Rng.Lanes} stream, so the plan alone pins
   every lane's trajectory. *)
let block_plan ~num_vars ~lanes ~block_seed =
  if lanes < 1 || lanes > max_lanes then
    invalid_arg "Bitpar.block_plan: lanes must be in [1, 64]";
  let rng = Rng.create block_seed in
  let order = Array.init num_vars (fun i -> i) in
  Rng.shuffle rng order;
  let lane_seeds = Array.init lanes (fun _ -> Rng.next_seed rng) in
  (order, lane_seeds)

let lane_init (q : quantized) lane_seed =
  let n = q.problem.Problem.num_vars in
  let lane_rng = Rng.create lane_seed in
  let spins = Rng.spins lane_rng n in
  let draw_seed = Rng.next_seed lane_rng in
  (spins, draw_seed)

(* --- Scalar lane reference kernel ------------------------------------------- *)

(* One lane, annealed with plain scalar code over the same quantized
   integer dynamics: the comparator for the packed kernel's equivalence
   tests and the fallback for odd jobs.  Deliberately shares no packing
   logic with [anneal_block] — only the seed derivation, the tables, and
   the draw stream. *)
let anneal_lane (q : quantized) ~(acceptance : Schedule.acceptance) ~order ~lane_seed =
  let p = q.problem in
  let n = p.Problem.num_vars in
  let row_start = p.Problem.row_start and col = p.Problem.col in
  let qw = q.qweight in
  let spins, draw_seed = lane_init q lane_seed in
  let lrng = Rng.Lanes.of_seeds [| draw_seed |] in
  let fields =
    Array.init n (fun i ->
        let f = ref q.qh.(i) in
        for k = row_start.(i) to row_start.(i + 1) - 1 do
          f := !f + (qw.(k) * spins.(col.(k)))
        done;
        !f)
  in
  let table = Array.make acceptance.Schedule.width 0 in
  for step = 0 to acceptance.Schedule.num_steps - 1 do
    let len = Schedule.fill_row acceptance ~step table in
    for idx = 0 to n - 1 do
      let i = order.(idx) in
      let s = spins.(i) in
      let k = -s * fields.(i) in
      if k <= 0 || (k < len && Rng.Lanes.draw lrng 0 < table.(k)) then begin
        spins.(i) <- -s;
        let step_j = -2 * s in
        for e = row_start.(i) to row_start.(i + 1) - 1 do
          let j = col.(e) in
          fields.(j) <- fields.(j) + (step_j * qw.(e))
        done
      end
    done
  done;
  spins

(* --- Packed block kernel ----------------------------------------------------- *)

type block_result = {
  reads : Problem.spin array array;
      (** lane-indexed final configurations; a single entry (lane 0's
          partial state) when the block timed out mid-anneal *)
  timed_out : bool;
}

let expired deadline =
  match deadline with
  | None -> false
  | Some d -> Unix.gettimeofday () > d

(* Extract lane [l]'s +-1 configuration from the packed words. *)
let lane_spins ~num_vars ~lo ~hi l =
  if l < half then
    Array.init num_vars (fun i -> if (lo.(i) lsr l) land 1 = 1 then 1 else -1)
  else
    let l = l - half in
    Array.init num_vars (fun i -> if (hi.(i) lsr l) land 1 = 1 then 1 else -1)

(* Accept mask of one 32-lane half at one variable, without a
   data-dependent branch.  Per lane, the uphill delta in quantization levels
   is [k = -s * field]; [down] is all ones iff [k <= 0] and [inwin] iff
   [0 < k < len], the only case that consumes a draw: the lane's stream
   advances by [rinc land inwin], and the drawn bits are compared against
   [table.(k land inwin)] (the k = 0 sentinel when out of window, masked
   out of the verdict).  The verdict is [down], or [inwin] and
   [draw < threshold] by the sign of their difference (both lie in
   [0, 2^61]).  The draw is {!Rng.Lanes.draw} inlined by hand; the
   equivalence tests against {!anneal_lane} pin the two paths together. *)
let[@inline] accept_half ~fields ~states ~table ~len ~rinc ~rmul ~w ~fbase
    ~lane0 ~count =
  let m = ref 0 in
  for l = 0 to count - 1 do
    let f = Array.unsafe_get fields (fbase + l) in
    let neg = -((w lsr l) land 1) in
    let k = (f lxor neg) - neg in
    let down = (k - 1) asr 62 in
    let inwin = lnot down land ((k - len) asr 62) in
    let s = Array.unsafe_get states (lane0 + l) + (rinc land inwin) in
    Array.unsafe_set states (lane0 + l) s;
    let z = s lxor (s lsr 30) in
    let z = z * rmul in
    let z = z lxor (z lsr 27) in
    let t = Array.unsafe_get table (k land inwin) in
    let acc = down lor (inwin land (((z lsr 2) - t) asr 62)) in
    m := !m lor ((acc land 1) lsl l)
  done;
  !m

(* Count of trailing zeros of a nonzero 32-bit word: isolate the lowest
   set bit and index a de Bruijn table by its product with B(2, 5). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] ctz32 m =
  Array.unsafe_get debruijn ((((m land -m) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Flip scatter over the set bits of [mask] (lanes [lane0 + bit]): walk the
   CSR row [e0..e1] once per flipped lane, adding [dw.(e)] to each
   neighbor's field in that lane.  [dw] is [w2] ([2 * qw]) for lanes whose
   old spin was -1 and [neg_w2] for +1; [colx.(e) = col.(e) * lanes].  All
   three are precomputed per block, so the walk has no multiply. *)
let[@inline] scatter ~fields ~colx ~dw ~e0 ~e1 ~lane0 mask =
  let m = ref mask in
  while !m <> 0 do
    let l = lane0 + ctz32 !m in
    m := !m land (!m - 1);
    for e = e0 to e1 do
      let slot = Array.unsafe_get colx e + l in
      Array.unsafe_set fields slot (Array.unsafe_get fields slot + Array.unsafe_get dw e)
    done
  done

let anneal_block ?deadline (q : quantized) ~(acceptance : Schedule.acceptance)
    ~lanes ~block_seed =
  let p = q.problem in
  let n = p.Problem.num_vars in
  let order, lane_seeds = block_plan ~num_vars:n ~lanes ~block_seed in
  let row_start = p.Problem.row_start and col = p.Problem.col in
  let qw = q.qweight in
  let lanes_lo = min lanes half in
  let lanes_hi = lanes - lanes_lo in
  (* Packed spins: bit [l] of [lo.(i)] (or [l - 32] of [hi.(i)]) set means
     lane [l] holds spin +1 at variable [i]. *)
  let lo = Array.make n 0 and hi = Array.make n 0 in
  (* Per-lane integer local fields, lane-minor: [fields.(i * lanes + l)]. *)
  let fields = Array.make (n * lanes) 0 in
  let draw_seeds = Array.make lanes 0 in
  Array.iteri
    (fun l seed ->
       let spins, draw_seed = lane_init q seed in
       draw_seeds.(l) <- draw_seed;
       if l < half then
         Array.iteri (fun i s -> if s > 0 then lo.(i) <- lo.(i) lor (1 lsl l)) spins
       else begin
         let b = l - half in
         Array.iteri (fun i s -> if s > 0 then hi.(i) <- hi.(i) lor (1 lsl b)) spins
       end)
    lane_seeds;
  for i = 0 to n - 1 do
    let base = i * lanes in
    for l = 0 to lanes - 1 do
      fields.(base + l) <- q.qh.(i)
    done;
    for e = row_start.(i) to row_start.(i + 1) - 1 do
      let j = col.(e) in
      let w = qw.(e) in
      let jl = lo.(j) and jh = hi.(j) in
      for l = 0 to lanes_lo - 1 do
        (* s_j = +-1 from bit l of the neighbor's word *)
        let s = ((jl lsr l) land 1 * 2) - 1 in
        fields.(base + l) <- fields.(base + l) + (w * s)
      done;
      for l = 0 to lanes_hi - 1 do
        let s = ((jh lsr l) land 1 * 2) - 1 in
        fields.(base + half + l) <- fields.(base + half + l) + (w * s)
      done
    done
  done;
  let lrng = Rng.Lanes.of_seeds draw_seeds in
  let states = Rng.Lanes.states lrng in
  let rinc = Rng.Lanes.increment in
  let rmul = 0x2545F4914F6CDD1D in
  let colx = Array.map (fun j -> j * lanes) col in
  let w2 = Array.map (fun w -> 2 * w) qw in
  let neg_w2 = Array.map (fun w -> -2 * w) qw in
  let table = Array.make acceptance.Schedule.width 0 in
  let num_sweeps = acceptance.Schedule.num_steps in
  let timed_out = ref false in
  let step = ref 0 in
  while !step < num_sweeps && not !timed_out do
    if expired deadline then timed_out := true
    else begin
      let len = Schedule.fill_row acceptance ~step:!step table in
      for idx = 0 to n - 1 do
        let i = Array.unsafe_get order idx in
        let base = i * lanes in
        let wl = Array.unsafe_get lo i in
        let wh = Array.unsafe_get hi i in
        let ml = accept_half ~fields ~states ~table ~len ~rinc ~rmul ~w:wl
            ~fbase:base ~lane0:0 ~count:lanes_lo in
        let mh = accept_half ~fields ~states ~table ~len ~rinc ~rmul ~w:wh
            ~fbase:(base + half) ~lane0:half ~count:lanes_hi in
        if ml lor mh <> 0 then begin
          Array.unsafe_set lo i (wl lxor ml);
          Array.unsafe_set hi i (wh lxor mh);
          let e0 = Array.unsafe_get row_start i
          and e1 = Array.unsafe_get row_start (i + 1) - 1 in
          (* Old spin +1 (bit set): neighbors lose 2w; old spin -1: gain. *)
          scatter ~fields ~colx ~dw:neg_w2 ~e0 ~e1 ~lane0:0 (ml land wl);
          scatter ~fields ~colx ~dw:w2 ~e0 ~e1 ~lane0:0 (ml land lnot wl);
          scatter ~fields ~colx ~dw:neg_w2 ~e0 ~e1 ~lane0:half (mh land wh);
          scatter ~fields ~colx ~dw:w2 ~e0 ~e1 ~lane0:half (mh land lnot wh)
        end
      done;
      incr step
    end
  done;
  let reads =
    if !timed_out then [| lane_spins ~num_vars:n ~lo ~hi 0 |]
    else Array.init lanes (lane_spins ~num_vars:n ~lo ~hi)
  in
  { reads; timed_out = !timed_out }
