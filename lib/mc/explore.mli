(** Bounded exhaustive schedule exploration (stateless model checking).

    The explorer enumerates {e every} adversary decision sequence of a
    bounded instance — a {!Check.Config.t} whose adversary is the
    DLS-parametric family [Dls {delta; phi}] — and executes each complete
    schedule through {!Check.Runner}, using the existing wait-freedom /
    ◇WX / exiting monitors as oracles. A schedule is the full sequence of
    {!Dsim.Adversary.decision}s the engine queries during one run — delay
    choices (each in [1, delta]) and unforced step-offer booleans — which
    the explorer's controller answers through {!Dsim.Adversary.drive}. So
    every counterexample is an ordinary full-override ["fuzz-repro/1"]
    artifact that [dinersim replay] re-executes bit-identically through
    {!Dsim.Adversary.replayer} (see {!Dsim.Adversary.drive} for the
    PRNG-parity argument).

    Exploration is depth-first by re-execution: each tree node is a
    decision prefix; visiting it runs a fresh engine that replays the
    prefix and extends it greedily with first choices (step offered, delay
    1). One search keeps one decision tape: a node is a prefix of it, and
    a pending sibling is a (position, decision) pair on a stack, not a
    copied prefix — when it is popped, the tape still holds its parent's
    prefix, because every visit since its push explored below that
    parent. The controller, its per-pid arrays and one
    {!Check.Runner.plan} are built once per search, each schedule is a
    {!Check.Runner.judge} of that plan, and a schedule's decision array
    is built only for a kept violation or under [collect_schedules].
    Forced steps — queries where the engine's weak-fairness backstop
    fires because the process has not stepped for [phi] ticks — have a
    single branch, normalised to [Step true]; the explorer mirrors the
    engine's fairness accounting exactly, so tapes never branch on
    decisions the engine would ignore.

    {2 Partial-order reduction}

    With [por] on, a sleep-set–style reduction prunes step branches that
    only commute with everything explored since a sibling subtree covered
    them. Decisions are owned by pids (a step offer by its process, a
    delay by the destination); two decisions are treated as independent
    when their owners are distinct non-neighbors of the conflict graph.
    Descending into the [Step false] sibling after exploring [Step true]
    puts the pid to sleep; any later decision owned by a dependent pid
    (the pid itself or a conflict-graph neighbor stepping or receiving a
    message) wakes it; a fresh [Step true] branch for a sleeping pid is
    pruned. This is deliberately conservative about wake-ups but still
    heuristic for timing-sensitive oracles — see DESIGN.md for the
    soundness argument and its caveats, and the full-vs-POR
    verdict-equality test that backs it empirically.

    {2 Determinism and parallelism}

    Exploration is a pure function of the config: a sequential phase
    enumerates the DFS tree down to [split_depth] decisions, yielding an
    ordered list of completed schedules and subtree roots; the subtrees
    are then explored on an {!Exec.Pool} and merged in enumeration order.
    The split does not depend on [jobs], and the [max_schedules] budget
    applies per subtree, so results are byte-identical at any job
    count. *)

open Dsim

type config = {
  base : Check.Config.t;
      (** Bounded instance. The adversary must be [Dls] and [handicap]
          must be [None] (the explorer mirrors the unstretched fairness
          bound). *)
  por : bool;  (** Enable sleep-set partial-order reduction. *)
  max_schedules : int;
      (** Schedule budget {e per subtree root} (and per phase-1 leaf run):
          exceeding it sets [truncated] instead of diverging. *)
  split_depth : int;
      (** Decision depth of the sequential root split. Must not depend on
          [jobs]; deeper splits expose more parallelism. *)
  jobs : int;  (** Worker domains for subtree exploration. *)
  crash_budget : int;
      (** Enumerate all crash schedules of at most this many crashes
          (default 0: crash-free — heartbeat detection is slower than the
          short horizons this explorer can afford). *)
  crash_grid : int;  (** Tick spacing of candidate crash times. *)
  collect_schedules : bool;
      (** Also return every explored complete schedule (cross-validation
          tests); keep off for large runs. *)
}

val default : base:Check.Config.t -> config
(** [por = true], [max_schedules = 20_000], [split_depth = 4],
    [jobs = 1], [crash_budget = 0], [crash_grid = 4],
    [collect_schedules = false]. *)

type violation = {
  crash_index : int;  (** Index into {!crash_schedules} of the config. *)
  schedule_index : int;
      (** Enumeration index of the failing schedule within that crash
          schedule's exploration. *)
  repro : Check.Repro.t;
      (** Full-override replayable artifact (schema ["fuzz-repro/1"]). *)
}
(** Only the first 16 violations in enumeration order are kept as
    artifacts; [violation_count] counts them all. *)

type stats = {
  crash_schedules : int;
  schedules : int;  (** Complete schedules executed. *)
  pruned : int;  (** Branches removed by the sleep-set reduction. *)
  violation_count : int;
  max_decisions : int;  (** Longest decision sequence seen. *)
  truncated : bool;  (** Some subtree exhausted its schedule budget. *)
}

type result = {
  stats : stats;
  violations : violation list;
      (** The first 16 in global enumeration order, at any [jobs]. *)
  failed_checks : string list;
      (** Sorted union of the failed check names of every violation, kept
          or not. *)
  schedules : Adversary.decision array list;
      (** Every explored schedule, in enumeration order — empty unless
          [collect_schedules]. *)
}

val crash_schedules : config -> (Types.pid * Types.time) list list
(** The crash schedules the explorer enumerates, in order: the empty
    schedule, then all sorted pid/tick assignments of size up to
    [crash_budget] with ticks on the [crash_grid]. *)

val run :
  ?progress:(stats -> unit) ->
  ?metrics:Obs.Metrics.t ->
  registry:Check.Runner.registry ->
  config ->
  result
(** Explore exhaustively. [progress] is invoked with cumulative stats
    after each crash schedule's exploration completes (it runs on the
    calling domain). [metrics] receives the explorer counters
    ([mc_schedules], [mc_pruned_branches], [mc_violations],
    [mc_crash_schedules]). Raises [Invalid_argument] when the config's
    adversary is not [Dls] or a handicap is set. *)
