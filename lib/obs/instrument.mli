(** Standard engine instrumentation.

    {!install} wires a {!Metrics} registry to a live engine:

    - an [on_tick] hook samples the histogram [engine.in_flight_depth]
      (undelivered messages after the tick), its one metric update per
      tick;
    - the events appended from [install] on are folded into counters
      [detector.<name>.flips], [detector.<name>.suspects],
      [detector.<name>.trusts], [engine.crashes],
      [dining.<instance>.meals], histogram
      [dining.<instance>.hunger_latency] plus the exact-quantile digest
      [dining.<instance>.hunger_latency_exact] (on each Hungry→Eating
      transition, the ticks since the diner's previous transition, or
      since tick 0 for a diner first seen there: one sample per completed
      hunger session, 0-tick sessions included), and the throughput series
      [dining.<instance>.meals_per_window] ({!meals_window_width}-tick
      windows).

    On a retained trace the fold runs at {!finalize}, over the events
    from the trace's length at [install] on, and no trace subscriber is
    registered, so an append costs Instrument nothing. An unretained
    trace cannot be read back, so Instrument subscribes to it and folds
    each event as it is appended. Both see the same events in the same
    order and give the same metrics, but on a retained trace the event
    metrics are complete only after {!finalize}, and events appended
    after it are not counted.

    {!finalize} also records counter [engine.ticks] (ticks run since
    [install]) and end-of-run gauges [engine.live_procs],
    [engine.clock], [engine.sent_total], [engine.in_flight_final] and
    per-tag [engine.sent.<tag>].

    Each handle is resolved once, at the first event that creates its
    name, so the registry holds the same names as a lookup per event
    would, and the fold builds no name or key per event.

    All of the above is deterministic in the engine seed. Wall-clock
    timing (elapsed seconds, ticks/sec) is measured too but deliberately
    kept {e outside} the registry — it is only available through
    {!wall_json}, which reports feed into their segregated ["wall_clock"]
    section. *)

type t

val meals_window_width : int
(** Window width (ticks) of the [dining.<instance>.meals_per_window]
    throughput series. *)

val install : metrics:Metrics.t -> Dsim.Engine.t -> t
(** Install the tick hook, and the trace subscriber on an unretained
    trace. Events and ticks before [install] are not counted. *)

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
