(** Discrete-event simulation engine.

    Implements the system model of Section 4 of the paper:

    - a finite set of processes [0 .. n-1] executing atomic steps: in each
      step a process consumes every message pending at the step's start,
      in a shuffled order, and executes at most one enabled guarded action
      (interleaving semantics, with a rotating cursor providing weak
      fairness across a process's actions);
    - reliable non-FIFO channels: every message sent to a correct process is
      eventually delivered exactly once, uncorrupted; delivery delays are
      chosen by the {!Adversary}; messages to crashed processes vanish;
    - crash faults: a crashed process ceases execution permanently;
    - a discrete global clock (the tick counter), inaccessible to protocols
      except through their local [now] capability, which models local
      step-counting rather than global time.

    All nondeterminism derives from a single seeded {!Prng}, so runs are
    exactly reproducible. *)

type t

val create :
  ?seed:int64 ->
  ?retain_trace:bool ->
  ?delivery:[ `Wheel | `Reference ] ->
  n:int ->
  adversary:Adversary.t ->
  unit ->
  t
(** Raises [Invalid_argument] unless [0 < n <= 2^21]: a message's
    header packs its source and destination into 21 bits each (and its
    tag id, so a run may intern at most 2^21 tags).

    [retain_trace] (default [true]) is forwarded to {!Trace.create}: pass
    [false] for very long runs that stream the trace to an [Obs.Sink]
    instead of holding it in memory.

    [delivery] selects the in-flight representation: [`Wheel] (default), an
    O(1) bucketed timing wheel keyed on delivery tick, or [`Reference], the
    previous tree-map of buckets. The wheel starts at 4 slots and grows to
    the smallest power of two that holds a send's delay, up to 256 slots,
    with an overflow map beyond; so creating an engine for short runs with
    small delays, as the model checker does once per schedule, allocates
    little (an n = 2 engine, 133 words).
    The two are observationally identical (same traces, same PRNG draws,
    same delivery order — property-tested in [test/test_scale.ml]);
    [`Reference] exists only as the oracle for that differential test. *)

val n : t -> int
val now : t -> Types.time
val trace : t -> Trace.t
val rng : t -> Prng.t

val ctx : t -> Types.pid -> Context.t
(** Capability bundle for building components at process [pid]. Built at
    the first call for [pid]; later calls return the same value. *)

val register : t -> Types.pid -> Component.t -> unit
(** Add a component (protocol layer / logical thread) to a process: its
    actions are appended to the process's action table, and the
    weak-fairness rotation restarts at the table's first action. Raises
    [Invalid_argument] on duplicate component names at the same process. *)

val schedule_crash : t -> Types.pid -> at:Types.time -> unit
(** The process ceases taking steps at the first tick >= [at]. Raises
    [Invalid_argument] when [pid] is not a process of the engine. *)

val crash_now : t -> Types.pid -> unit

val is_live : t -> Types.pid -> bool
val crashed : t -> Types.Pidset.t
val live_set : t -> Types.Pidset.t

val live_count : t -> int
(** Number of live processes, maintained incrementally — O(1), unlike
    [Types.Pidset.cardinal (live_set t)] which rebuilds a set per call.
    Per-tick instrumentation should use this. *)

val in_flight_counter : t -> tag:string -> f:(Msg.t -> bool) -> unit -> int
(** [in_flight_counter t ~tag ~f] registers a counter of the undelivered
    messages on [tag] (in flight, or ripe in a live inbox but not yet
    consumed) whose payload satisfies [f], and returns its O(1) reader.
    The engine moves it at four points: send, dead-destination discard,
    inbox drain and crash-time inbox clear; so read from an {!on_tick}
    hook it equals [in_flight_scan t ~tag ~f]. [f] must be a pure function
    of the payload: it runs once when a matching-tag message is sent and
    once when it leaves. With [f] accepting every payload it counts all of
    the tag's undelivered messages. Registering on a tag that has never
    sent is O(1); otherwise the counter is seeded by one scan.
    Registration is not a send: it leaves {!sent_with_tag} and
    {!sent_by_tag} unchanged. For white-box monitors, not protocols: the
    Lemma 3 monitor registers four per reduction pair. *)

val in_flight_scan : t -> tag:string -> f:(Msg.t -> bool) -> int
(** What an {!in_flight_counter} maintains, recomputed by walking every
    wheel slot, the overflow map and every inbox — O(wheel size +
    undelivered traffic). The test oracle for the counters (see
    [test/test_scale.ml]) and the seed of a counter registered once its
    tag has sent; monitors read the counters. *)

val in_flight_total : t -> int
(** All undelivered messages, any tag (excludes inbox-pending ones). *)

val sent_total : t -> int
(** Total messages sent so far (accounting, used by benches). *)

val sent_with_tag : t -> tag:string -> int

val sent_by_tag : t -> (string * int) list
(** All (tag, sent count) pairs, sorted by tag — a deterministic snapshot
    for metrics export. *)

val on_tick : t -> (unit -> unit) -> unit
(** Register a hook executed at the end of every tick (after all process
    steps); used by online invariant monitors. *)

val step : t -> unit
(** Advance the clock by one tick. *)

val run : t -> until:Types.time -> unit
(** Run until [now >= until]. *)

val run_while : t -> max:Types.time -> (unit -> bool) -> unit
(** Step while the predicate holds and [now < max]. *)
