(** Log-bucketed histogram for latency-style measurements.

    Values land in geometrically spaced buckets — [buckets_per_decade] per
    factor of ten between [min_value] and [max_value], plus an underflow and
    an overflow bucket — so a fixed, small amount of memory covers many
    orders of magnitude with bounded {e relative} error: a reported quantile
    is within one bucket ratio ([10^(1/buckets_per_decade)]) of the true
    value.  That is the standard shape for serving-latency metrics
    (HdrHistogram, Prometheus classic buckets): tails stay resolved without
    storing every observation.

    Not thread-safe; callers synchronize (the serve scheduler records under
    its own mutex and hands out {!copy} snapshots). *)

type t

val create :
  ?min_value:float -> ?max_value:float -> ?buckets_per_decade:int -> unit -> t
(** Defaults: [min_value = 1e-6], [max_value = 1e4] (microseconds to hours,
    in seconds), [buckets_per_decade = 10].  Raises [Invalid_argument] on a
    non-positive range or rate. *)

val add : t -> float -> unit
(** Record one observation.  Values below [min_value] (including negatives)
    clamp into the underflow bucket, values at or above [max_value] into the
    overflow bucket. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val max_seen : t -> float
(** Largest value observed (exact, not bucketed); 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [0 <= q <= 1]: the representative value (geometric
    bucket midpoint) of the bucket holding the [ceil (q * count)]-th
    smallest observation.  0 when empty.  Raises [Invalid_argument] on a
    [q] outside [0, 1]. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val bucket_ratio : t -> float
(** The geometric growth factor between bucket bounds — the relative
    resolution of {!quantile}. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s counts into [dst].  Raises
    [Invalid_argument] when the bucket layouts differ. *)

val copy : t -> t

val clear : t -> unit

val cumulative : t -> (float * int) list
(** The Prometheus classic-histogram form: [(le, n)] pairs in ascending
    [le], where [n] counts the observations below [le].  One entry per
    non-empty bucket below the overflow bucket, then exactly one
    [(infinity, count t)] entry, which holds the overflow observations
    too; an empty histogram gives [[(infinity, 0)]]. *)
