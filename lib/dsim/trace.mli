(** Structured run trace.

    Every observable event of a run — dining phase transitions, suspicion
    flips of any failure-detector module, crashes, and protocol-specific
    notes — is appended here with its global-clock timestamp. All property
    checkers (exclusion, wait-freedom, completeness, accuracy, fairness and
    the paper's lemma invariants) are pure functions over a trace.

    The trace keeps events in append order and offers no per-diner view:
    a dining instance's phase history (segments, eating intervals, meal
    counts) is read from [Dining.Monitor.Index], built from the trace in
    two linear passes. *)

type event =
  | Transition of { instance : string; pid : Types.pid; from_ : Types.phase; to_ : Types.phase }
      (** A diner of dining instance [instance] changed phase. *)
  | Suspect of { detector : string; owner : Types.pid; target : Types.pid }
      (** [owner]'s module of detector [detector] started suspecting [target]. *)
  | Trust of { detector : string; owner : Types.pid; target : Types.pid }
      (** [owner]'s module of detector [detector] stopped suspecting [target]. *)
  | Crash of { pid : Types.pid }
  | Note of { pid : Types.pid; label : string; info : string }
      (** Protocol-specific marker (e.g. ping sent, ack received). *)

type entry = { at : Types.time; ev : event }
(** An event with its tick, as subscribers, {!entries}, {!filter} and
    {!notes} see it. The trace itself does not keep entries. *)

type t

val create : ?retain:bool -> unit -> t
(** [retain] (default [true]): whether appended events are stored in
    memory. With [~retain:false] the trace only fans appends out to
    subscribers, the memory-free streaming mode for very long runs
    (property checkers then run offline over an exported JSONL file).

    Retained events are stored in 32-slot chunks of two columns, the
    ticks in an [int array] and the events in an [event array], under
    one spine. The first chunk is allocated at the first retained
    append, so a [~retain:false] trace never holds one. An append writes
    one slot of each column and never copies an earlier event. *)

val retained : t -> bool
(** Whether appended events are stored, so {!iter} can read them back. *)

val append : t -> at:Types.time -> event -> unit
(** Builds an {!entry} only when there is a subscriber, once, and shares
    it among the subscribers; a retained append stores the tick and the
    event and builds nothing. With [~retain:false] and no subscriber an
    append allocates nothing. *)

val subscribe : t -> (entry -> unit) -> unit
(** Register a streaming observer called synchronously on every append, in
    registration order, before (and regardless of) in-memory retention.
    This is the attachment point for [Obs.Sink] trace sinks. *)

val length : t -> int
(** Number of retained events. *)

val iter : ?from:int -> t -> (Types.time -> event -> unit) -> unit
(** [iter ~from t f] calls [f at ev] on each retained event from index
    [from] (default 0) on, in append order, without building an entry.
    [Trace.length t] read before a stretch of appends is the [from] that
    visits exactly them. Events appended by [f] are not visited. *)

val entries : t -> entry list
(** All entries in chronological (append) order. *)

val filter : t -> (entry -> bool) -> entry list
(** The entries that satisfy the predicate, in append order; builds an
    entry per event to test it. *)

val crash_times : t -> Types.time Types.Pidmap.t
(** First crash time of each crashed process. *)

val suspicion_flips :
  t -> detector:string -> owner:Types.pid -> target:Types.pid
  -> (Types.time * bool) list
(** Chronological suspicion history: [(t, true)] = started suspecting at [t];
    [(t, false)] = started trusting. Initial attitude is whatever the
    detector logged first (detectors log their initial state at time 0). *)

val suspected_at :
  t -> detector:string -> owner:Types.pid -> target:Types.pid -> at:Types.time
  -> initially:bool -> bool
(** Attitude of [owner] toward [target] at time [at] given the attitude
    before any logged flip. *)

val notes : ?pid:Types.pid -> ?label:string -> t -> entry list
(** The matching notes as entries, in append order; builds an entry only
    for a match. *)

val dump : ?limit:int -> Format.formatter -> t -> unit

val to_csv : t -> string
(** The whole trace as CSV with header
    [at,kind,scope,actor,peer,detail] — [scope] is the dining instance or
    detector name, [actor]/[peer] the pids involved, [detail] the phase
    transition, flip direction, or note payload. *)

val write_csv : t -> path:string -> unit
