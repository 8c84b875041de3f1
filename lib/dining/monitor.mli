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

    Every check reads one {e phase index} of the instance: its
    transitions regrouped by diner into flat int rows, plus each diner's
    first crash, built in two linear passes over the trace. Each function
    below builds that index and reads it, so its cost is linear in the
    trace (◇WX adds a sort of the violations it reports); {!Index} lets a
    caller build it once for several checks. Diners are non-negative
    pids, and each diner's transitions must be appended in time order, as
    the engine appends them ([Invalid_argument] otherwise). *)

type violation = {
  at : Dsim.Types.time;  (** Instant both neighbors were eating and live. *)
  p : Dsim.Types.pid;
  q : Dsim.Types.pid;
}

val live_eating_intervals :
  Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> horizon:Dsim.Types.time ->
  (Dsim.Types.time * Dsim.Types.time) list
(** Eating intervals clipped at the diner's crash time (a crashed process is
    no longer live, so post-crash "eating" cannot violate ◇WX). *)

val exclusion_violations :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> violation list
(** One record per overlapping live-eating interval pair, at overlap start,
    chronological. *)

val last_violation_time :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> Dsim.Types.time option

val eventual_weak_exclusion :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> suffix_from:Dsim.Types.time -> Detectors.Properties.verdict
(** No violation at or after [suffix_from]. *)

val perpetual_weak_exclusion :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> Detectors.Properties.verdict

val wait_freedom :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Detectors.Properties.verdict
(** Every hungry phase of a correct diner beginning before
    [horizon - slack] transitions to eating. [slack] absorbs requests that
    are legitimately still in progress at the end of the run. *)

val exiting_finite :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Detectors.Properties.verdict
(** The spec requires relinquishment to complete in finite time: no correct
    diner may sit in [Exiting] from before [horizon - slack] to the end. *)

val eat_count :
  Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> int

val max_overtaking :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  after:Dsim.Types.time -> horizon:Dsim.Types.time -> int
(** Maximum, over diners [p] (correct) and neighbors [q], of the number of
    eating sessions [q] begins during one hungry wait of [p] that starts at
    or after [after]. Eventual k-fairness holds iff this is <= k for a
    suitable suffix. *)

val starved :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Dsim.Types.pid list
(** Correct diners left hungry at the horizon whose wait began before
    [horizon - slack]. *)

val failure_locality :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> slack:Dsim.Types.time -> int option
(** The crash-locality actually exhibited by the run: the maximum, over
    starved correct diners, of the distance to the nearest crashed process
    ([Some 0] when nothing starves, [None] when a diner starves with no
    crash to blame — i.e. the algorithm starves on its own). Wait-free
    algorithms exhibit locality 0; the FL-1 algorithms of [11] bound it by
    1; plain fork-based dining lets a crash starve whole chains. *)

val fairness_index :
  Dsim.Trace.t -> instance:string -> pids:Dsim.Types.pid list -> float
(** Jain's fairness index over the meal counts of the given diners:
    [(sum x)^2 / (n * sum x^2)], 1.0 = perfectly even, 1/n = one diner
    took everything. *)

val hungry_wait_times :
  Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> horizon:Dsim.Types.time -> int list
(** Durations of the completed hungry -> eating waits of one diner. *)

(** {1 Several checks over one index} *)

module Index : sig
  type t
  (** The phase index of one dining instance. *)

  val build : Dsim.Trace.t -> instance:string -> t

  val eat_count : t -> pid:Dsim.Types.pid -> int

  val wait_freedom :
    t -> n:int -> horizon:Dsim.Types.time -> slack:Dsim.Types.time ->
    Detectors.Properties.verdict

  val eventual_weak_exclusion :
    t -> graph:Graphs.Conflict_graph.t -> horizon:Dsim.Types.time ->
    suffix_from:Dsim.Types.time -> Detectors.Properties.verdict

  val exiting_finite :
    t -> n:int -> horizon:Dsim.Types.time -> slack:Dsim.Types.time ->
    Detectors.Properties.verdict
end
(** [Index.f (Index.build trace ~instance)] is [f trace ~instance]. *)
