(** Counterexample shrinking: deterministic delta-debugging of a failing
    campaign run, first over the config vector, then over the recorded
    adversary decision trace.

    Config shrinking greedily applies simplification candidates (smaller
    topology, friendlier adversary family/knobs, fewer and earlier crashes,
    no handicap, half the horizon, unit meals) and keeps a candidate iff
    its run still exhibits a property violation, restarting from the
    coarsest candidates after every acceptance until a fixpoint or a budget
    of 200 runs. Decision shrinking then records the minimal config's
    failing run and neutralises positional chunks of the decision trace
    towards the friendliest schedule (delay 1 / step offered) in a
    ddmin-style halving loop, within 150 replays. Every step is
    deterministic, so a given failing config always shrinks to the same
    artifact. *)

val counterexample : registry:Runner.registry -> Config.t -> Repro.t
(** Full pipeline: shrink the config, shrink its decision trace, re-run
    the minimal case and package it with its recorded verdicts. The input
    should be failing; the artifact then still fails. *)
