(** Phase spans: the interval view of a run.

    A renderer over the phase index ({!Dining.Monitor.Index}), the run's
    one phase history: one span per contiguous stay of a diner in a
    phase, per dining instance found in the trace. {!chrome_of_trace}
    renders the spans as a Chrome trace-event document viewable in
    Perfetto.

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

val spans : Dsim.Trace.t -> horizon:Dsim.Types.time -> span list
(** All spans of the run, from one index per instance:
    - a diner first seen mid-run has held its first transition's [from_]
      phase since tick 0 (diners start [Thinking] at 0);
    - a stay entered and left within one tick has no span;
    - every span ended by a transition is [closed], even one that ends
      past [horizon]; the last stay, when it starts before [horizon], is
      cut there with [closed = false];
    - a pid with no transition has no span.

    Sorted by (instance, pid, start, stop). Transitions of a negative pid
    are ignored; a diner's transitions going back in time raise
    [Invalid_argument]. *)

val schema_version : string
(** ["trace_event/1"] — tag of the Chrome export document. *)

val chrome_of_trace : ?horizon:Dsim.Types.time -> Dsim.Trace.t -> Json.t
(** Render a recorded trace as a Chrome trace-event JSON document
    (openable in Perfetto / chrome://tracing): one complete ("X") event
    per phase span with ticks as microseconds, one instant ("i") event
    per suspicion flip, crash and note, plus process-name metadata.
    [horizon] defaults to one past the last event. Deterministic in the
    trace contents. *)
