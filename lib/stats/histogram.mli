(** Log-linear histogram for latency-style measurements.

    HDR-histogram-like bucketing: values are grouped into power-of-two
    ranges, each subdivided linearly into 32 buckets, giving a bounded
    relative error (about 1.5%) over the full non-negative integer
    range.  Values below 64 are recorded exactly.  Records are O(1);
    quantile queries walk the buckets. *)

type t

val create : unit -> t
(** An empty histogram. *)

val index_of : int -> int
(** Bucket index a value lands in; exposed so the bucketing's round-trip
    and error-bound properties are testable. *)

val value_of : int -> int
(** Midpoint value of a bucket: a right inverse of [index_of] up to the
    bucket's relative error, i.e. [index_of (value_of i) = i]. *)

val record : t -> int -> unit
(** Record a non-negative value (negative values are clamped to 0). *)

val count : t -> int
val min_value : t -> int
(** Smallest recorded value; 0 when empty. *)

val max_value : t -> int
val mean : t -> float
val sum : t -> int

val percentile : t -> float -> int
(** [percentile t p] with [p] in [\[0, 100\]] is an approximation of
    the [p]-th percentile of the recorded values: the midpoint of the
    bucket that holds it, clamped into [[min_value, max_value]].  0 when
    empty. *)

val quantile_interp : t -> float -> float
(** [quantile_interp t q] is an interpolated [q]-quantile: the rank
    [q * (count - 1)] is located in its bucket and the result linearly
    interpolated across the bucket's value range (each bucket's mass
    spread evenly), then clamped into [[min_value, max_value]].  Exact
    for values below 64 (width-1 buckets); within the bucket's relative
    error elsewhere.  0 when empty.  The stage
    breakdown report's p50/p99/p99.9 come from here. *)

val merge_into : src:t -> dst:t -> unit
(** Fold [src]'s records into [dst]. *)

val clear : t -> unit

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: count, mean, p50/p90/p99/p99.9, max (values
    rendered as times in ns). *)
