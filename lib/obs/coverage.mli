(** Schedule-coverage signatures.

    An AFL-style edge bitmap over a run's behavioural event stream: each
    trace event hashes to a 64-bit site (hand-rolled FNV-1a — never
    [Hashtbl.hash], whose output is unspecified across compiler
    versions), consecutive sites on the same logical track (all phase
    transitions of a dining instance, all flips of a detector module, all
    notes of a label, the crash stream) form edges, and each edge sets
    one bit of a fixed-width bitmap. Tracks span processes on purpose:
    an edge records which process's event followed which, so the bitmap
    fingerprints the schedule's interleaving, not just each process's
    (fixed) phase cycle. Equal signatures mean the runs exercised the
    same set of event successions; a campaign's union bitmap growing
    means new schedules are still being found.

    Signatures are a pure function of the trace, hence of the engine
    seed: same seed ⇒ byte-identical bitmap, regardless of worker count
    or merge order (union is commutative). *)

type t
(** A finished signature: plain immutable data (safe inside structurally
    compared run outcomes). *)

val default_width : int
(** 4096 edge buckets (512 bytes). *)

val empty : ?width:int -> unit -> t
(** All-zero signature. Raises [Invalid_argument] unless [width] is a
    positive multiple of 8. *)

val width : t -> int

val union : t -> t -> t
(** Bitwise or; commutative and associative. Raises [Invalid_argument]
    when the widths differ. *)

val edges : t -> int
(** Number of set edge buckets (popcount). *)

val new_edges : seen:t -> t -> int
(** Edge buckets set in the signature but not in [seen] — the marginal
    coverage a run adds to a campaign's accumulator. *)

val equal : t -> t -> bool

val to_hex : t -> string
(** Lowercase hex of the bitmap bytes (LSB-first bit order within each
    byte); [width / 4] characters. *)

val of_hex : string -> t
(** Inverse of {!to_hex}. Raises [Invalid_argument] on odd-length, empty
    or non-hex input. *)

val digest : t -> string
(** MD5 hex of the bitmap bytes — a compact pinnable fingerprint. *)

val to_json : t -> Json.t
(** [{"width":W,"edges":E,"digest":"..","bitmap":"hex.."}]. *)

(** {1 Collecting} *)

type collector

val create : ?width:int -> unit -> collector
(** Fresh collector. Raises like {!empty}. *)

val observe : collector -> Dsim.Trace.event -> unit
(** Hashes the bytes of the event's rendered site string without building
    it; allocates nothing once the event's track has been seen. The
    signature does not depend on the event's tick. *)

val attach : collector -> Dsim.Trace.t -> unit
(** [iter] over already-recorded events, then [subscribe] for the rest
    of the run. *)

val snapshot : collector -> t
(** The signature accumulated so far (a copy; the collector may keep
    observing). *)
