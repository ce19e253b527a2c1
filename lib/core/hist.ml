(* Geometric bucketing: bucket 0 is underflow [0, min); bucket i for
   1 <= i <= n covers [min * r^(i-1), min * r^i); bucket n+1 is overflow
   [max, inf).  r = 10^(1/buckets_per_decade). *)

type t = {
  min_value : float;
  max_value : float;
  buckets_per_decade : int;
  ratio : float;
  inv_log_ratio : float;  (* 1 / ln r, for O(1) value->bucket *)
  counts : int array;  (* length = interior buckets + 2 *)
  mutable total : int;
  mutable value_sum : float;
  mutable value_max : float;
}

let create ?(min_value = 1e-6) ?(max_value = 1e4) ?(buckets_per_decade = 10) () =
  if not (min_value > 0.0 && max_value > min_value) then
    invalid_arg "Hist.create: need 0 < min_value < max_value";
  if buckets_per_decade < 1 then
    invalid_arg "Hist.create: buckets_per_decade must be >= 1";
  let decades = log10 (max_value /. min_value) in
  let interior = int_of_float (ceil (decades *. float_of_int buckets_per_decade)) in
  let ratio = 10.0 ** (1.0 /. float_of_int buckets_per_decade) in
  { min_value;
    max_value;
    buckets_per_decade;
    ratio;
    inv_log_ratio = 1.0 /. log ratio;
    counts = Array.make (interior + 2) 0;
    total = 0;
    value_sum = 0.0;
    value_max = 0.0 }

let num_buckets t = Array.length t.counts

let index t v =
  if v < t.min_value then 0
  else if v >= t.max_value then num_buckets t - 1
  else begin
    (* floor can land one bucket off at exact bound values because of
       rounding in log; clamp into the interior range. *)
    let i = 1 + int_of_float (log (v /. t.min_value) *. t.inv_log_ratio) in
    let i = if i < 1 then 1 else if i > num_buckets t - 2 then num_buckets t - 2 else i in
    i
  end

let lower_bound t i =
  if i = 0 then 0.0 else t.min_value *. (t.ratio ** float_of_int (i - 1))

let upper_bound t i =
  if i = 0 then t.min_value
  else if i = num_buckets t - 1 then infinity
  else t.min_value *. (t.ratio ** float_of_int i)

(* The value a bucket stands for when quoted as a quantile: the geometric
   midpoint for interior buckets, the clamp bound for the edge buckets. *)
let representative t i =
  if i = 0 then t.min_value
  else if i = num_buckets t - 1 then t.max_value
  else sqrt (lower_bound t i *. upper_bound t i)

let add t v =
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.value_sum <- t.value_sum +. v;
  if v > t.value_max then t.value_max <- v

let count t = t.total
let sum t = t.value_sum
let mean t = if t.total = 0 then 0.0 else t.value_sum /. float_of_int t.total
let max_seen t = t.value_max
let bucket_ratio t = t.ratio

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Hist.quantile: q outside [0, 1]";
  if t.total = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < num_buckets t do
      seen := !seen + t.counts.(!i);
      if !seen < rank then incr i
    done;
    representative t (min !i (num_buckets t - 1))
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99

let same_layout a b =
  a.min_value = b.min_value && a.max_value = b.max_value
  && a.buckets_per_decade = b.buckets_per_decade

let merge_into dst src =
  if not (same_layout dst src) then
    invalid_arg "Hist.merge_into: bucket layouts differ";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  dst.value_sum <- dst.value_sum +. src.value_sum;
  if src.value_max > dst.value_max then dst.value_max <- src.value_max

let copy t = { t with counts = Array.copy t.counts }

let clear t =
  Array.fill t.counts 0 (num_buckets t) 0;
  t.total <- 0;
  t.value_sum <- 0.0;
  t.value_max <- 0.0

(* Prometheus classic-histogram form.  The overflow bucket's upper bound
   is +Inf, so its observations count only in the one closing entry. *)
let cumulative t =
  let seen = ref 0 and out = ref [] in
  for i = 0 to num_buckets t - 2 do
    seen := !seen + t.counts.(i);
    if t.counts.(i) > 0 then out := (upper_bound t i, !seen) :: !out
  done;
  List.rev ((infinity, t.total) :: !out)
