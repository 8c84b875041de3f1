(** Run adversaries: message delays and step schedules.

    The paper's system model is asynchronous — message delay and relative
    process speed are unbounded but finite, channels are reliable and
    non-FIFO, and correct processes take infinitely many steps. A finite
    simulation can only exhibit bounded behaviours, so an adversary is a
    *family of knobs* over those bounds; the interesting regimes are:

    - {!synchronous}: lock-step, delay 1 — the friendliest schedule.
    - {!async_uniform}: random bounded delays and random step skipping with
      a weak-fairness backstop.
    - {!partial_sync}: arbitrary (large, reordering) delays before an
      unknown global stabilisation time [gst], bounded by [delta] after —
      the classic model in which ◇P is implementable.
    - {!bursty}: alternating calm/storm delay phases before [gst]; stresses
      timeout adaptation. *)

type t = {
  name : string;
  delay : Prng.t -> now:Types.time -> src:Types.pid -> dst:Types.pid -> int;
      (** Delivery delay (>= 1 ticks) assigned when a message is sent. *)
  steps : Prng.t -> now:Types.time -> Types.pid -> bool;
      (** Whether this live process is offered a step this tick. The engine
          additionally forces a step after [fairness_bound] consecutive
          skipped ticks, so correct processes always take infinitely many
          steps. *)
  fairness_bound : int;
}

val synchronous : unit -> t

val async_uniform : ?max_delay:int -> ?step_prob:float -> ?fairness_bound:int -> unit -> t

val partial_sync :
  ?gst:Types.time ->
  ?pre_max_delay:int ->
  ?delta:int ->
  ?pre_step_prob:float ->
  ?fairness_bound:int ->
  unit ->
  t
(** Before [gst]: delays uniform in [1, pre_max_delay], steps offered with
    probability [pre_step_prob]. From [gst] on: delays uniform in
    [1, delta], every live process steps every tick. *)

val dls : ?delta:int -> ?phi:int -> unit -> t
(** DLS-style parametric adversary: message delays uniform in [1, delta]
    and steps offered with probability 1/2, under a weak-fairness backstop
    of [phi] (every live process takes a step at least every [phi] ticks —
    the relative-speed bound). With [delta = 1] and [phi = 1] this is the
    synchronous model. The decision space of this adversary — each delay a
    choice in [1, delta], each unforced step offer a boolean — is what the
    bounded exhaustive explorer in lib/mc enumerates through {!drive}.
    Raises [Invalid_argument] unless [delta >= 1] and [phi >= 1]. *)

val handicap : slow:Types.pid list -> factor:float -> t -> t
(** Derive an adversary where the listed processes are offered steps only
    with probability [factor] of the base schedule (their weak-fairness
    backstop is stretched by [1/factor] too, so they stay correct — just
    arbitrarily slow, which asynchrony permits). *)

(** {1 Record / replay}

    The schedule-fuzzing harness needs to (a) capture every nondeterministic
    choice an adversary makes during a run and (b) re-execute a run with
    some of those choices overridden (the shrinker's neutralised
    candidates). Both wrappers forward each query to the base adversary
    {e first} — consuming exactly the PRNG draws the base would consume —
    so recording never perturbs the run it observes, and replaying the full
    recorded decision sequence reproduces the recorded run bit-identically. *)

type decision =
  | Delay of int  (** A delivery-delay choice, in ticks (>= 1). *)
  | Step of bool  (** A step-offer choice. *)

type tape
(** Mutable recording of the decision sequence of one run, in query order
    (delay and step queries share a single position counter). *)

val tape : unit -> tape
val tape_decisions : tape -> decision array

val record : tape -> t -> t
(** Wrap an adversary so every decision is appended to the tape. *)

val replay : len:int -> overrides:(int * decision) list -> t -> t
(** [replay ~len ~overrides base] drives the first [len] queries from the
    override table: query [i < len] takes the decision at position [i] when
    one is present with the matching kind, and otherwise the {e friendliest}
    choice (delay 1 / step offered). Queries at positions [>= len] fall back
    to the base adversary. Replaying [~len] the tape's length with the full
    recorded decision list ({!tape_decisions}) reproduces the recorded run exactly; removing
    overrides neutralises the corresponding adversarial choices. Raises
    [Invalid_argument] on an override position outside [0, len). *)

(** {1 Driven adversaries}

    The model-checking explorer needs to {e choose} every adversary
    decision rather than record or override a random one. [drive] hands
    the fields of each query — its tick and the pids involved — to one of
    two controller callbacks, which returns the decision: a delay, or
    whether the step is offered. No query value is built, so a driven
    query allocates nothing beyond what its callback does. *)

val drive :
  delay:(now:Types.time -> src:Types.pid -> dst:Types.pid -> int) ->
  step:(now:Types.time -> Types.pid -> bool) ->
  t ->
  t
(** [drive ~delay ~step base] answers each delivery-delay query for a
    message sent at [now] from [src] to [dst] with [delay ~now ~src ~dst],
    and each step-offer query for [pid] at tick [now] with [step ~now pid].
    The base adversary's decision is computed (and its PRNG draws burnt)
    {e first}, exactly as {!record} does — so a driven run consumes the
    same engine PRNG stream as a {!replay} of the chosen decisions, and a
    counterexample found by the explorer replays bit-identically from an
    ordinary full-override decision table. Raises [Invalid_argument] when
    [delay] returns a delay [< 1]. *)

val bursty :
  ?gst:Types.time ->
  ?calm:int ->
  ?storm:int ->
  ?storm_delay:int ->
  ?delta:int ->
  ?fairness_bound:int ->
  unit ->
  t
(** Before [gst], time alternates between [calm]-tick windows (delay 1-3)
    and [storm]-tick windows (delay up to [storm_delay]); after [gst],
    behaves like {!partial_sync}. *)
