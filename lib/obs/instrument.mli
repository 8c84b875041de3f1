(** Standard engine instrumentation.

    {!install} wires a {!Metrics} registry to a live engine. It registers
    no tick hook. The events appended from [install] on are folded into
    counters [detector.<name>.flips], [detector.<name>.suspects],
    [detector.<name>.trusts], [engine.crashes] and
    [dining.<family>.meals], and the exact-quantile digest
    [dining.<family>.hunger_latency]: on each Hungry→Eating transition,
    the ticks since the diner's previous transition in its own instance,
    or since tick 0 for a diner first seen there (one sample per
    completed hunger session, 0-tick sessions included).

    {b Families.} A dining instance's or a message tag's {e family} is
    the part of its name before its first opening bracket, or the whole
    name when it has none. The reduction's pair [p>q] names its instances
    [dx0[p>q]] and [dx1[p>q]] and its witness and subject tags [w[p>q]]
    and [s[p>q]], so they fall in families [dx0], [dx1], [w] and [s];
    [Flawed_cm] ([cm], [cw], [cs]) and [Single_instance] ([si], [siw],
    [sis]) name theirs the same way, and ["dx"] is its own family.
    Dining metrics and the sent gauges are keyed by family, so a
    report's metric names do not grow with the number of instances.
    Each instance keeps its own diners' last transition ticks; the
    instances of a family share one digest and one meals counter.

    On a retained trace the fold runs at {!finalize}, over the events
    from the trace's length at [install] on, and no trace subscriber is
    registered, so an append costs Instrument nothing. An unretained
    trace cannot be read back, so Instrument subscribes to it and folds
    each event as it is appended. Both see the same events in the same
    order and give the same metrics, but on a retained trace the event
    metrics are complete only after {!finalize}, and events appended
    after it are not counted.

    {!finalize} also records counter [engine.ticks] (the clock at
    [finalize] minus the clock at [install]) and end-of-run gauges
    [engine.live_procs], [engine.clock], [engine.sent_total],
    [engine.in_flight_final] and, per tag family, [engine.sent.<family>]
    (the messages sent under that family's tags, summed).

    Each handle is resolved once, at the first event that creates its
    name, and an instance's family when its record is first made, so
    the registry holds the same names as a lookup per event would, and
    the fold builds no name or key per event.

    All of the above is deterministic in the engine seed. Wall-clock
    timing (elapsed seconds, ticks/sec) is measured too but deliberately
    kept {e outside} the registry — it is only available through
    {!wall_json}, which reports feed into their segregated ["wall_clock"]
    section. *)

type t

val install : metrics:Metrics.t -> Dsim.Engine.t -> t
(** Record the clock, and subscribe to an unretained trace. Events and
    ticks before [install] are not counted. *)

val finalize : t -> unit
(** Fold the retained trace's events since [install], record end-of-run
    totals and stop the wall clock; idempotent. Read the metrics after
    it. *)

val wall_json : t -> Json.t
(** [{"elapsed_s":...,"ticks":...,"ticks_per_s":...}] — nondeterministic,
    for the report's ["wall_clock"] section only. Finalizes if needed. *)

val now_s : unit -> float
(** Wall-clock seconds. This module is the one sanctioned clock reader
    (simlint D001): use this only for quantities that end up in a report's
    segregated ["wall_clock"] section, never for anything canonical. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] is [(f (), elapsed wall seconds)] — same caveat as {!now_s}. *)
