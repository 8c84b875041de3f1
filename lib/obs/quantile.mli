(** Exact quantile digest over integer samples.

    The digest reports {e exact} nearest-rank quantiles, where a
    bucketed histogram knows them only up to a bucket bound: the
    internal representation is a sorted
    run-length encoding (distinct values and their counts, in two int
    arrays) plus a small pending buffer of raw samples, compacted
    deterministically whenever the buffer fills. A steady-state {!add}
    allocates nothing. No reservoir, no sampling, no decay — p999 of a million
    samples is the true 999,000th order statistic. Memory is O(distinct
    values), bounded for tick-valued latencies by the run horizon.

    Everything here is a pure function of the observed sample sequence,
    so same-seed runs serialize byte-identically (the determinism
    contract of the run reports). *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Observe one sample. Amortized O(1); worst case one compaction pass,
    linear in the number of distinct values seen so far. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int option
val max_value : t -> int option
(** [None] while no sample has been observed. *)

val quantile : t -> float -> int option
(** [quantile t q] with [q] in [0, 1] is the nearest-rank [q]-quantile:
    the smallest observed value whose cumulative count reaches
    [ceil (q * n)] (clamped to at least rank 1, so [q = 0.0] is the
    minimum and [q = 1.0] the maximum). [None] when empty. Raises
    [Invalid_argument] outside [0, 1]. *)

val runs : t -> (int * int) list
(** The compacted (value, count) runs in increasing value order — the
    digest's full exact contents (used by tests). *)

val merge : into:t -> t -> unit
(** Multiset union: after [merge ~into src], [into] holds every sample of
    both sides. Order-independent (unlike gauge merges). [src]'s sample
    content is unchanged, though it may be compacted in place. *)

val to_json : t -> Json.t
(** [{"count":N,"sum":S,"min":..,"max":..,"p50":..,"p90":..,"p99":..,
    "p999":..}] with nulls when empty. Deterministic in the samples. *)
