(** Trace checkers for the dining safety/liveness properties of Section 4.

    - {e Eventual weak exclusion} (◇WX): there is a time after which no two
      live neighbors eat simultaneously; finitely many earlier mistakes are
      allowed.
    - {e Perpetual weak exclusion} (WX): live neighbors never eat
      simultaneously.
    - {e Wait-freedom}: if correct diners eat for finite time, every correct
      hungry diner eventually eats, no matter how many processes crash.
    - {e Eventual k-fairness} ([13]): there is a time after which no diner
      enters its critical section more than [k] consecutive times while a
      correct neighbor stays hungry.

    On a finite trace the eventual properties are checked against an
    explicit suffix start (or reported as a measured convergence time).

    Every check reads one {e phase index} of the instance ({!Index}): its
    transitions regrouped by diner into flat int rows, plus each diner's
    first crash, built in two linear passes over the trace. The index is
    the one phase history of a run: the checks here, the span view of
    [Obs.Span] and the WSN coverage series all read it, so a caller
    builds it once per instance and runs every check on it; the lemma
    fold of [Reduction.Lemmas], which reads every pair instance in one
    pass, cuts its segments by the same rule, {!is_segment}. Each check
    is linear in the trace (◇WX adds a sort of the violations it
    reports). Diners are non-negative pids, and each diner's transitions
    must be appended in time order, as the engine appends them
    ([Invalid_argument] otherwise). *)

val is_segment : since:Dsim.Types.time -> at:Dsim.Types.time -> bool
(** The one segment rule of a diner's phase history, which {!Index}'s
    segments and the lemma fold of [Reduction.Lemmas] both follow. A
    diner stays in the phase it enters at [since] until its next
    transition, at [at]; that stay is the segment [\[since, at)] when
    [at] is past [since], so a stay entered and left within one tick has
    no segment. The last stay runs to the horizon, as [\[since,
    horizon)], when [is_segment ~since ~at:horizon]. *)

type violation = {
  at : Dsim.Types.time;  (** Instant both neighbors were eating and live. *)
  p : Dsim.Types.pid;
  q : Dsim.Types.pid;
}

module Index : sig
  type t
  (** The phase index of one dining instance. *)

  val build : Dsim.Trace.t -> instance:string -> t

  (** {1 Phase history} *)

  val iter_segments :
    t -> pid:Dsim.Types.pid -> horizon:Dsim.Types.time ->
    (Dsim.Types.time -> Dsim.Types.time -> Dsim.Types.phase -> unit) -> unit
  (** [f a b phase] for each piecewise-constant stay [\[a, b)] of the
      diner, in time order, cut by {!is_segment}. Diners start
      [Thinking] at 0. Transitions at or past [horizon] still close their
      segments. *)

  val iter_spans :
    t -> horizon:Dsim.Types.time ->
    (Dsim.Types.pid -> Dsim.Types.time -> Dsim.Types.time -> Dsim.Types.phase -> bool -> unit) ->
    unit
  (** [f pid a b phase closed] for every diner, pids ascending, with the
      segments of {!iter_segments} under the two rules of a diner seen
      only through its transitions: a diner with no transition has no
      segment, and the stay before its first transition is in that
      transition's [from_] phase (on an engine trace that is [Thinking]).
      [closed] is [false] for the last segment when it is cut at
      [horizon], not ended by a transition. *)

  val eating_starts : t -> pid:Dsim.Types.pid -> Dsim.Types.time array
  (** Ticks at which the diner entered [Eating], in order. *)

  val eat_count : t -> pid:Dsim.Types.pid -> int

  (** {1 Checks} *)

  val live_eating_intervals :
    t -> pid:Dsim.Types.pid -> horizon:Dsim.Types.time -> (Dsim.Types.time * Dsim.Types.time) list
  (** Eating segments clipped at the diner's crash time (a crashed process
      is no longer live, so post-crash "eating" cannot violate ◇WX). *)

  val exclusion_violations :
    t -> graph:Graphs.Conflict_graph.t -> horizon:Dsim.Types.time -> violation list
  (** One record per overlapping live-eating interval pair, at overlap
      start, chronological. *)

  val last_violation_time :
    t -> graph:Graphs.Conflict_graph.t -> horizon:Dsim.Types.time -> Dsim.Types.time option

  val eventual_weak_exclusion :
    t -> graph:Graphs.Conflict_graph.t -> horizon:Dsim.Types.time ->
    suffix_from:Dsim.Types.time -> Detectors.Properties.verdict
  (** No violation at or after [suffix_from]. *)

  val perpetual_weak_exclusion :
    t -> graph:Graphs.Conflict_graph.t -> horizon:Dsim.Types.time -> Detectors.Properties.verdict

  val wait_freedom :
    t -> n:int -> horizon:Dsim.Types.time -> slack:Dsim.Types.time ->
    Detectors.Properties.verdict
  (** Every hungry phase of a correct diner beginning before
      [horizon - slack] transitions to eating. [slack] absorbs requests
      that are legitimately still in progress at the end of the run. *)

  val exiting_finite :
    t -> n:int -> horizon:Dsim.Types.time -> slack:Dsim.Types.time ->
    Detectors.Properties.verdict
  (** The spec requires relinquishment to complete in finite time: no
      correct diner may sit in [Exiting] from before [horizon - slack] to
      the end. *)

  val max_overtaking :
    t -> graph:Graphs.Conflict_graph.t -> after:Dsim.Types.time -> horizon:Dsim.Types.time -> int
  (** Maximum, over diners [p] (correct) and neighbors [q], of the number
      of eating sessions [q] begins during one hungry wait of [p] that
      starts at or after [after]. Eventual k-fairness holds iff this is
      <= k for a suitable suffix. *)

  val starved :
    t -> n:int -> horizon:Dsim.Types.time -> slack:Dsim.Types.time -> Dsim.Types.pid list
  (** Correct diners left hungry at the horizon whose wait began before
      [horizon - slack]. *)

  val failure_locality :
    t -> graph:Graphs.Conflict_graph.t -> horizon:Dsim.Types.time -> slack:Dsim.Types.time ->
    int option
  (** The crash-locality actually exhibited by the run: the maximum, over
      starved correct diners, of the distance to the nearest crashed
      process ([Some 0] when nothing starves, [None] when a diner starves
      with no crash to blame — i.e. the algorithm starves on its own).
      Wait-free algorithms exhibit locality 0; the FL-1 algorithms of [11]
      bound it by 1; plain fork-based dining lets a crash starve whole
      chains. *)

  val fairness_index : t -> pids:Dsim.Types.pid list -> float
  (** Jain's fairness index over the meal counts of the given diners:
      [(sum x)^2 / (n * sum x^2)], 1.0 = perfectly even, 1/n = one diner
      took everything. *)
end

(** {1 One check over a trace}

    [f trace ~instance] is [Index.f (Index.build trace ~instance)]: for a
    caller that runs one check on an instance. *)

val wait_freedom :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Detectors.Properties.verdict

val eventual_weak_exclusion :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> suffix_from:Dsim.Types.time -> Detectors.Properties.verdict

val exiting_finite :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Detectors.Properties.verdict

val eat_count : Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> int
