(** Metrics registry: named counters, gauges and exact-quantile digests.

    Everything here is driven by simulation events, so for a fixed seed the
    snapshot is bit-for-bit reproducible; wall-clock quantities are kept
    out of the registry on purpose (see {!Instrument.wall_json}).

    Units convention, used by every instrumented name in this repo:
    counters count events, gauges are instantaneous quantities, digest
    samples are in global-clock {e ticks} unless the name says otherwise. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if the name is already
    registered with a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val quantile : t -> string -> Quantile.t
(** Get-or-create an exact-quantile digest (see {!Quantile}). *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters add, digests take
    the multiset union, and gauges take the source value (last merge
    wins). Merging several registries in a canonical order — campaign
    drivers merge per-run registries in run-index order — therefore
    yields a canonical result independent of which worker produced which
    registry. Raises [Invalid_argument] when a name is registered with
    different kinds on the two sides. [src] is not modified. *)

val to_json : t -> Json.t
(** Deterministic snapshot: [{"counters":{...},"gauges":{...},
    "quantiles":{name -> Quantile.to_json}}] with all names sorted. *)
