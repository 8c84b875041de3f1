(** Stable leader election from ◇P.

    The paper's introduction lists stable leader election [1] among the
    problems ◇P solves; with the reduction of this repository, any WF-◇WX
    dining box therefore yields a leader service. The rule is the classic
    one: trust the lowest process the local ◇P module does not suspect.
    Once the detector converges, every correct process permanently elects
    the same (lowest-id correct) leader. *)

type t = {
  leader : unit -> Dsim.Types.pid;
  component : Dsim.Component.t;
      (** Logs a ["leader"]-labelled {!Dsim.Trace.Note} on every change. *)
}

val create :
  Dsim.Context.t ->
  members:Dsim.Types.pid list ->
  suspects:(unit -> Dsim.Types.Pidset.t) ->
  unit ->
  t

val stabilisation_time :
  Dsim.Trace.t -> pid:Dsim.Types.pid -> Dsim.Types.time option
(** Time of the last leader change logged by that process ([None] if it
    never elected anyone). *)
