(** Execute one campaign config and collect its property verdicts.

    A runner builds the engine from the config (seed, adversary, optionally
    steered by a controller), deploys the named dining algorithm with
    greedy clients on every process, applies the crash schedule, runs to
    the horizon, and checks the Section 4 dining properties over the
    trace: wait-freedom (slack horizon/3), eventual weak exclusion (suffix
    from horizon/2), and finite exiting; or reports a run that raised (see
    {!run}). *)

open Dsim

type builder =
  Engine.t -> graph:Graphs.Conflict_graph.t -> instance:string -> eat_ticks:int -> unit
(** Deploy one dining algorithm (plus clients and any detectors it needs)
    on every process of the engine. *)

type registry = (string * builder) list
(** Algorithms by config name. Tests extend this with broken variants. *)

type outcome = {
  checks : Obs.Report.check list;  (** Verdicts, fixed order. *)
  failed : string list;  (** Names of the checks that do not hold. *)
  meals : int;  (** Total completed+ongoing eating sessions (diagnostics). *)
  trace_events : int;
  coverage : Obs.Coverage.t;
      (** Schedule-coverage signature of the run's event stream —
          deterministic in the config, so replay reproduces it exactly. *)
}

val instance : string
(** The dining-instance tag used by every fuzz run (["fz"]). *)

val default_registry : registry
(** wf, kfair, fl1, hygienic, ftme — deployed exactly as [dinersim dining]
    deploys them (heartbeat ◇P under wf/kfair/fl1, trusting ground truth
    under ftme, nothing under hygienic). *)

val run :
  ?drive:Adversary.controller ->
  ?metrics:Obs.Metrics.t ->
  registry:registry ->
  Config.t ->
  outcome
(** Execute the config. [drive] steers the config's adversary with a
    controller (see {!Adversary.drive}): {!Adversary.recorder} captures the
    run's decisions, {!Adversary.replayer} re-executes a recorded or edited
    decision table, and the bounded exhaustive explorer chooses every
    decision. [metrics] installs the standard
    {!Obs.Instrument} engine instrumentation into the given registry
    (finalized before returning) — campaign drivers give each run its own
    registry and merge them in run-index order. Raises [Failure] on an
    algorithm name missing from the registry.

    A run that raises [Invalid_argument], [Failure], [Not_found],
    [Assert_failure], [Match_failure] or [Division_by_zero] (what a broken
    component raises, an off-cycle [Dining.Spec.Cell.set] for one) stops
    there and has one check, [no_exception], failed, whose detail holds
    the tick and the exception; the dining checks are not judged. Any
    other exception (a controller's own, [Stack_overflow],
    [Out_of_memory]) propagates. *)

val run_traced :
  ?drive:Adversary.controller ->
  ?metrics:Obs.Metrics.t ->
  registry:registry ->
  Config.t ->
  outcome * Trace.t
(** Like {!run} but also returns the full recorded trace — the input of
    {!Obs.Span.chrome_of_trace} and offline property checkers
    ([dinersim trace] renders repro artifacts through this). *)
