(** Counterexample shrinking: deterministic delta-debugging of a failing
    campaign run, first over the config vector, then over the recorded
    adversary decision trace, keeping the violation it was given: a
    candidate is kept iff its run fails the check the original run failed
    first (the runner lists a target's checks in a fixed order), so the
    repro shows that violation, not another one met on the way.

    Config shrinking greedily applies simplification candidates (smaller
    topology, friendlier adversary family/knobs, fewer and earlier crashes,
    no handicap, half the horizon, unit meals) and keeps a candidate iff
    its run still fails that check, restarting from the coarsest
    candidates after every acceptance until a fixpoint or a budget of 200
    runs. Decision shrinking then records the minimal config's failing run
    and neutralises positional chunks of the decision trace towards the
    friendliest schedule (delay 1 / step offered) in a ddmin-style halving
    loop, within 150 replays. Every step is deterministic, so a given
    failing config always shrinks to the same artifact. *)

val counterexample : registry:Runner.registry -> check:string -> Config.t -> Repro.t
(** Full pipeline: shrink the config, shrink its decision trace, re-run
    the minimal case and package it with its recorded verdicts. [check]
    names the first check the input's run fails; the artifact's run fails
    it too. *)
