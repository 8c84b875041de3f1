(** Algorithm 1 — the witness threads [p.w_0] and [p.w_1].

    Process [p] monitors the liveness of process [q] through two dining
    instances DX_0 and DX_1. The two witness threads take turns becoming
    hungry ([switch] alternates), and on each eating session thread [w_i]
    rules on [q]'s liveness: it trusts [q] iff a ping from subject [q.s_i]
    arrived since [w_i]'s previous eating session (Action W_x), then exits
    immediately. Each ping is acknowledged with a single ack (Action W_p).

    Both threads are one component sharing [switch], [haveping_{0,1}] and
    the [suspect_q] output, mirroring the paper's "single stream of physical
    execution" with interleaved actions. *)

type t = private {
  mutable switch : int;  (** Which witness thread is next to become hungry. *)
  haveping : bool array;
      (** [haveping.(i)] is the paper's [haveping_i]: a ping from [q.s_i]
          arrived since [w_i]'s last meal. Read it; only the witness
          threads write it. *)
  mutable suspect_q : bool;  (** The extracted output: [p] suspects [q]. *)
}
(** The witness threads' variables, read as fields. *)

val create :
  Dsim.Context.t ->
  tag:string ->
  subject_pid:Dsim.Types.pid ->
  subject_tag:string ->
  dx:Dining.Spec.handle array ->
  detector_name:string ->
  unit ->
  Dsim.Component.t * t
(** [dx] are this process's handles in DX_0 and DX_1 (length 2). The
    component runs both threads' actions; register it at [ctx.self].
    Suspicion flips of [suspect_q] are logged under [detector_name] with
    [owner = ctx.self], [target = subject_pid]. The output starts
    suspecting (the paper initialises [suspect_q] to true). *)
