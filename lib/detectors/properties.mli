(** Post-hoc checkers for failure-detector properties over run traces.

    Definitions follow Section 4 of the paper (and [3], [4]):

    - {e strong completeness}: every crashed process is eventually and
      permanently suspected by every correct process;
    - {e eventual strong accuracy}: there is a time after which no correct
      process is suspected by any correct process (◇P = both);
    - {e trusting accuracy} (the T detector): every correct process is
      eventually and permanently trusted, and a process that stops being
      trusted must have crashed by then.

    A finite trace can only witness the "so far" truncation of an eventual
    property: checkers therefore test the property {e at the horizon} (e.g.
    "the last flip on a correct pair happened, and it was a Trust"), and
    additionally report convergence statistics so that experiments can show
    the times are stable well before the horizon.

    Every checker over all pairs reads the detector's {!flips}, built in
    one pass over the trace, so it costs O(E + n{^ 2}) for a trace of E
    events; {!detection_time} asks about one pair and reads
    {!Dsim.Trace.suspicion_flips}. Only pids in [\[0, n)] are owners,
    targets and correct processes. *)

type verdict = {
  holds : bool;
  details : string list;  (** Human-readable violations (empty iff [holds]). *)
}

val pp_verdict : Format.formatter -> verdict -> unit

type flips
(** One detector's suspicion flips grouped by owner and target, and each
    process's first crash, over the pids of [\[0, n)]. *)

val flips : Dsim.Trace.t -> detector:string -> n:int -> flips
(** One pass over the trace. Flips whose owner or target lies outside
    [\[0, n)] are dropped, and so are crashes of such pids. *)

val pair_flips :
  flips -> owner:Dsim.Types.pid -> target:Dsim.Types.pid -> (Dsim.Types.time * bool) list
(** {!Dsim.Trace.suspicion_flips} of the pair, chronological; [[]] for a
    pid outside [\[0, n)]. *)

val strong_completeness :
  Dsim.Trace.t -> detector:string -> n:int -> initially_suspected:bool -> verdict

val eventual_strong_accuracy :
  Dsim.Trace.t -> detector:string -> n:int -> initially_suspected:bool -> verdict

val eventually_perfect :
  Dsim.Trace.t -> detector:string -> n:int -> initially_suspected:bool -> verdict
(** Conjunction of the two ◇P properties. *)

val trusting_accuracy :
  Dsim.Trace.t -> detector:string -> n:int -> initially_suspected:bool -> verdict
(** T's accuracy: (a) correct targets end up trusted by correct owners and
    (b) any Suspect event that follows a Trust event on the same pair
    happened at-or-after the target's crash. *)

val perpetual_weak_accuracy :
  Dsim.Trace.t -> detector:string -> n:int -> verdict
(** S's accuracy: some correct process is never suspected by any process
    (checked as: a correct pid exists with zero Suspect events against it,
    from any owner, in [\[0, n)] or not). *)

val detection_time :
  Dsim.Trace.t -> detector:string -> owner:Dsim.Types.pid -> target:Dsim.Types.pid ->
  initially_suspected:bool -> Dsim.Types.time option
(** Time from which [owner] suspects [target] permanently (time of the last
    flip-to-suspected, or 0 if initially suspected and never flipped);
    [None] if the pair does not end suspected. *)

val accuracy_convergence_time :
  Dsim.Trace.t -> detector:string -> n:int -> Dsim.Types.time
(** Latest time at which any correct owner stopped (or started, counting the
    flip itself) wrongfully suspecting a correct target; 0 if the detector
    never erred on correct pairs. *)

val total_false_suspicions :
  Dsim.Trace.t -> detector:string -> n:int -> int
