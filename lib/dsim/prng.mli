(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic choices in the simulator flow through this module so that
    every run is exactly reproducible from its seed. [Stdlib.Random] is never
    used anywhere in the library.

    Allocation contract: a draw allocates nothing. [int], [int_in], [bool],
    [chance] and [shuffle_prefix] (hence [shuffle]) allocate 0 words per
    call, because the state is held unboxed and every intermediate [int64]
    and [float] stays in registers. The engine draws on every process-tick,
    so [test/test_alloc.ml] measures each of them and fails on any word.
    [next_int64] and [float] return boxed values when not inlined into the
    caller; [create], [copy], [split] and [derive] allocate the new
    state. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Snapshot of the current generator state: a fresh state, so the copy
    and its source advance independently. *)

val split : t -> t
(** [split t] derives an independent child stream and advances [t]. *)

val derive : int64 -> index:int -> t
(** [derive seed ~index] is the [index]-th child stream of [seed], as a
    pure function of the pair — no generator state is consumed, so two
    callers derive identical streams regardless of execution order. This is
    what parallel campaign drivers use to make run [i] independent of runs
    [0..i-1]. Requires [index >= 0]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform over [0, bound). Requires [bound > 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform over the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val chance : t -> p:float -> bool
(** [chance t ~p] is true with probability [p] (clamped to [0, 1]). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_prefix : t -> 'a array -> len:int -> unit
(** In-place Fisher-Yates shuffle of the first [len] elements, leaving the
    tail untouched. Draws exactly the sequence [shuffle] would on an array
    of length [len], so replay is unchanged when a hot path swaps a fresh
    array for an oversized reusable scratch buffer. *)
