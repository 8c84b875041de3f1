(** Phase spans: the interval view of a run.

    A collector folds the flat {!Dsim.Trace} event stream into
    per-(instance, diner) phase spans — one interval per contiguous stay
    in a phase. This is the single source of phase-duration truth:
    {!Instrument} derives hunger latencies from closed [Hungry] spans,
    and {!chrome_of_trace} renders the same intervals as a Chrome
    trace-event document viewable in Perfetto.

    Spans are derived purely from trace timestamps, so every output here
    is deterministic in the engine seed. *)

type span = {
  instance : string;
  pid : Dsim.Types.pid;
  phase : Dsim.Types.phase;
  start : Dsim.Types.time;
  stop : Dsim.Types.time;  (** exclusive; the horizon for open spans *)
  closed : bool;  (** [false]: cut at the horizon, not by a transition *)
}

type t

val create : ?retain:bool -> unit -> t
(** [retain] (default [true]): keep closed spans in memory for {!spans}.
    With [~retain:false] the collector only drives {!on_close} callbacks
    — the memory-free mode {!Instrument} uses for latency accounting. *)

type close =
  instance:string ->
  pid:Dsim.Types.pid ->
  phase:Dsim.Types.phase ->
  start:Dsim.Types.time ->
  stop:Dsim.Types.time ->
  next:Dsim.Types.phase ->
  unit
(** A span-close callback: the closed span's fields (it is always
    [closed = true]) and [next], the phase the diner moved to. The fields
    come unboxed so that closing a span allocates nothing. *)

val on_close : t -> close -> unit
(** Register a callback fired (in registration order) whenever a
    transition closes a span, including zero-length ones — a 0-tick
    hunger session is still a latency sample. *)

val observe : t -> Dsim.Trace.entry -> unit
(** Feed one trace entry. Only [Transition] events affect span state. A
    diner first seen mid-run is assumed to have held the transition's
    [from_] phase since tick 0 (diners start [Thinking] at 0). Open spans
    live in per-instance arrays indexed by pid, so a [~retain:false]
    collector allocates only when it first meets an instance or a larger
    pid. Raises [Invalid_argument] on a negative pid. *)

val attach : t -> Dsim.Trace.t -> unit
(** [iter] over the already-recorded entries, then [subscribe] for the
    rest of the run. *)

val spans : t -> horizon:Dsim.Types.time -> span list
(** All spans of the run: closed spans plus every still-open span cut at
    [horizon] with [closed = false]. Zero-length spans are omitted,
    mirroring {!Dsim.Trace.phase_timeline}. Sorted by (instance, pid,
    start, stop) — canonical regardless of close order. Raises
    [Invalid_argument] on a [~retain:false] collector. *)

val schema_version : string
(** ["trace_event/1"] — tag of the Chrome export document. *)

val chrome_of_trace : ?horizon:Dsim.Types.time -> Dsim.Trace.t -> Json.t
(** Render a recorded trace as a Chrome trace-event JSON document
    (openable in Perfetto / chrome://tracing): one complete ("X") event
    per phase span with ticks as microseconds, one instant ("i") event
    per suspicion flip, crash and note, plus process-name metadata.
    [horizon] defaults to one past the last event. Deterministic in the
    trace contents. *)
