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

(** {1 Steering a run}

    Three tools choose or capture the decisions of a run rather than let
    the adversary draw them: the fuzz shrinker records a failing run and
    re-executes it with some decisions neutralised, [dinersim replay] and
    [dinersim trace] re-run repro artifacts, and the model checker in
    lib/mc chooses every decision. All three steer the run through
    {!drive}, which asks the base adversary {e first} — consuming exactly
    the PRNG draws the base would consume — and then lets a controller
    answer, given the base's own decision. Recording therefore never
    perturbs the run it observes, and replaying the full recorded decision
    sequence reproduces the recorded run bit-identically. *)

type decision =
  | Delay of int  (** A delivery-delay choice, in ticks (>= 1). *)
  | Step of bool  (** A step-offer choice. *)

type controller =
  (now:Types.time -> src:Types.pid -> dst:Types.pid -> int -> int)
  * (now:Types.time -> Types.pid -> bool -> bool)
(** The delay and the step callback. The delay callback answers the
    delivery-delay query for a message sent at [now] from [src] to [dst];
    the step callback answers the step-offer query for a pid at tick
    [now]. Each receives the base adversary's decision for the query as
    its last argument. Delay and step queries share one position counter,
    in query order. A controller that counts queries serves one run. *)

val drive : controller -> t -> t
(** [drive (delay, step) base] answers every query with the controller's
    answer, after drawing the base adversary's decision and passing it on.
    No query value is built, so a driven query allocates nothing beyond
    what its callback does. Raises [Invalid_argument] when the delay
    callback returns a delay [< 1]. *)

val recorder : unit -> controller * (unit -> decision array)
(** A controller that answers every query with the base decision, and a
    reader for the decisions recorded so far, in query order. *)

val replayer : len:int -> overrides:(int * decision) list -> controller
(** [replayer ~len ~overrides] answers the first [len] queries from the
    override table: query [i < len] takes the decision at position [i] when
    one is present with the matching kind, and otherwise the {e friendliest}
    choice (delay 1 / step offered). Queries at positions [>= len] take the
    base decision. Replaying a recorded run's length with its full
    recorded decision list reproduces that run exactly; removing overrides
    neutralises the corresponding adversarial choices. A replayed query
    allocates nothing. Raises [Invalid_argument] on a negative [len] or an
    override position outside [0, len). *)

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
