(** Perpetual-exclusion dining with crash locality 1, from ◇P ([11]-style).

    The paper's introduction cites "crash-locality-1 dining for perpetual
    exclusion [11]" as another problem ◇P solves, and Section 2 leans on
    the induced trade-off (◇P cannot give wait-freedom {e and} perpetual
    exclusion together [11], which is why WSN-style applications accept
    ◇WX). This module completes that design space in the reproduction:

    - {!Wf_ewx}: wait-free (locality 0) but only {e eventually} exclusive;
    - {!Ftme}: wait-free and perpetually exclusive, but needs T;
    - this module: perpetually exclusive from ◇P alone, at the price of
      starving the crashed processes' {e neighbors} — and only them
      (crash locality 1).

    Mechanism: suspicion never stands in for a fork (so exclusion is never
    violated, even by oracle mistakes). Instead, a hungry diner that is
    {e doomed} — waiting on a fork whose holder it currently suspects —
    turns generous: it surrenders every requested fork regardless of
    priority, so the processes behind it never block on it transitively.
    A false suspicion merely costs the victim its turn; when the oracle
    converges, exactly the crashed processes' neighbors can remain doomed.

    Checked by tests/benches: perpetual weak exclusion on every run; after
    convergence {!Monitor.Index.failure_locality} is 0 without crashes and <= 1
    with them, against unbounded starvation chains for the no-detector
    baseline. *)

val component :
  Dsim.Context.t ->
  instance:string ->
  graph:Graphs.Conflict_graph.t ->
  suspects:(unit -> Dsim.Types.Pidset.t) ->
  unit ->
  Dsim.Component.t * Spec.handle
