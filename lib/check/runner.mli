(** Execute one campaign config and collect its property verdicts.

    A config's [algo] names a {e target}, which fixes what the run
    deploys and which checks judge it: a registry name deploys that
    dining algorithm with greedy clients on every process, judged by the
    Section 4 dining checks (wait-freedom with slack horizon/3, eventual
    weak exclusion from horizon/2, finite exiting); [extract-<box>], for
    a box of {!Core.Scenario.boxes}, deploys the reduction over that box
    with its online Lemma monitors ({!Core.Scenario.extraction}; the
    topology gives only the process count), judged by
    {!extraction_checks}. Either way the runner builds the engine from
    the config (seed, adversary, optionally steered by a controller),
    applies the crash schedule and runs to the horizon; a run that raised
    has one failed check instead (see {!guarded_run}).

    A run has two parts. A {!plan} resolves what the config fixes: the
    target, the conflict graph, the adversary and its {!Adversary.drive}
    wrapper. {!judge} executes a plan once, on a fresh engine with a
    fresh deployment, and returns only that run's checks. {!run} and
    {!run_traced} are a plan, one execution and the {!outcome} fields
    around it; the model checker, the shrinker and {!certify}, which
    need only the verdicts of runs, judge plans. *)

open Dsim

type builder =
  Engine.t -> graph:Graphs.Conflict_graph.t -> instance:string -> eat_ticks:int -> unit
(** Deploy one dining algorithm (plus clients and any detectors it needs)
    on every process of the engine. *)

type registry = (string * builder) list
(** Algorithms by config name. Tests extend this with broken variants.
    The [extract-<box>] targets are not in it: {!plan} resolves them. *)

type outcome = {
  checks : Obs.Report.check list;  (** Verdicts, fixed order. *)
  failed : string list;  (** Names of the checks that do not hold. *)
  meals : int;
      (** Total completed+ongoing eating sessions of the run's dining
          instances: the algorithm's, or the pairs' DX instances of an
          extraction (diagnostics). *)
  trace_events : int;
  coverage : Obs.Coverage.t;
      (** Schedule-coverage signature of the run's event stream, observed
          from the retained trace after the run ({!Obs.Coverage.observe}
          over every entry, the bytes a collector subscribed before the
          deployment would give) — deterministic in the config, so replay
          reproduces it exactly. *)
}

val instance : string
(** The dining-instance tag used by every fuzz run (["fz"]). *)

val default_registry : registry
(** wf, kfair, fl1, hygienic, ftme — deployed exactly as [dinersim dining]
    deploys them (heartbeat ◇P under wf/kfair/fl1, trusting ground truth
    under ftme, nothing under hygienic). *)

val guarded_run : Engine.t -> until:Types.time -> Obs.Report.check option
(** [Engine.run engine ~until], with the exceptions a broken component
    raises caught: [Invalid_argument], [Failure], [Not_found],
    [Assert_failure], [Match_failure] and [Division_by_zero] (an off-cycle
    [Dining.Spec.Cell.set] raises the first). [None] when the run reached
    [until]; otherwise the run stops at the raising tick and the result
    is a failed [no_exception] check whose detail is
    ["t=<tick>: <exception>"]. Any other exception (a controller's own,
    [Stack_overflow], [Out_of_memory]) propagates. Every run of this
    module goes through it, and so does the one harness of the
    [dinersim] commands that build and run one engine ([dining],
    [extract], [vulnerability], [wsn], [ctm], [agreement]): each prints
    the fault as [no_exception: VIOLATED: <detail>], writes its report
    with that one check, and exits 1, as it does when any other check
    fails. *)

val extraction_checks : trusting:bool -> Core.Scenario.extraction_run -> Obs.Report.check list
(** The verdicts of a finished reduction run, in order: Theorem 1
    ([strong_completeness]) and Theorem 2 ([eventual_strong_accuracy]) of
    the extracted detector, with [trusting] T's [trusting_accuracy], then
    one [lemmas.<pair>] check per monitored pair: it holds when every
    online (2, 3, 4, 8, 9) and post-hoc (1, 5, 6, 7, 11, 12) Lemma report
    of the pair is clean, and its detail lists the failed lemmas. The
    [extract-<box>] targets (trusting for ftme) and [dinersim extract]
    judge with it. *)

val target_names : registry -> string list
(** Every algo a config may name: the registry's, then [extract-<box>]
    for each box of {!Core.Scenario.boxes}. *)

type plan
(** One config's run, resolved: its target, the conflict graph and the
    adversary, wrapped by the controller when one is given.
    A plan is immutable and any number of runs may execute it, but its
    controller is shared by them: a stateless controller, or one rewound
    between runs as the model checker's is, serves them all, while a
    stateful one such as a {!Adversary.recorder} or an
    {!Adversary.replayer} (its query cursor never rewinds) serves one
    run. *)

val plan : ?drive:Adversary.controller -> registry:registry -> Config.t -> plan
(** Raises [Failure] on an algorithm name that names no target. *)

val judge : plan -> Obs.Report.check list
(** Execute the plan once — a fresh engine, the target deployed once,
    the crashes, {!guarded_run} to the horizon — and return the run's
    checks, those of {!outcome}. A green dining run returns one shared
    list. *)

val failed : Obs.Report.check list -> string list
(** The names of the checks that do not hold, in order. *)

val run :
  ?drive:Adversary.controller ->
  ?metrics:Obs.Metrics.t ->
  registry:registry ->
  Config.t ->
  outcome
(** Execute the config: {!plan}, one execution, and the {!outcome}.
    [drive] steers the config's adversary with a controller (see
    {!Adversary.drive}): {!Adversary.recorder} captures the run's
    decisions and {!Adversary.replayer} re-executes a recorded or edited
    decision table. [metrics] installs the standard
    {!Obs.Instrument} engine instrumentation into the given registry
    (finalized before returning) — campaign drivers give each run its own
    registry and merge them in run-index order. Raises [Failure] on an
    algorithm name that names no target.

    A run cut short by an exception {!guarded_run} catches has that one
    failed [no_exception] check; the target's checks are not judged. *)

val run_traced :
  ?drive:Adversary.controller ->
  ?metrics:Obs.Metrics.t ->
  registry:registry ->
  Config.t ->
  outcome * Trace.t
(** Like {!run} but also returns the full recorded trace — the input of
    {!Obs.Span.chrome_of_trace} and offline property checkers
    ([dinersim trace] renders repro artifacts through this). *)

val certify :
  Core.Scenario.box -> seeds:int64 list -> horizon:int -> (Config.t * Obs.Report.check list) list
(** Whether a box behaves as a WF-◇WX box and the reduction extracts ◇P
    from it: per seed, three judged runs on a pair under [Partial {gst =
    500; pre_max_delay = 40; delta = 4; pre_step_prob_pct = 50}], each
    with its config, whose algo only labels it ({!plan} resolves
    neither): ["box"], the box's two diners with greedy clients and p1
    crashing at horizon/4, under the dining checks; then
    ["extract-box"], the reduction over the box without and with that
    crash, under {!extraction_checks} (not trusting). The box is
    certified when every check holds: evidence, not a proof, but a
    failed check is a counterexample and its config the run that shows
    it. *)
