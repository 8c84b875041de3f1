(** Algorithm 2 — the subject threads [q.s_0] and [q.s_1].

    The subjects coordinate their eating sessions by the hand-off mechanism:
    [s_0] becomes hungry first ([trigger = 0]); while eating (and while the
    peer subject is not) it sends exactly one ping to the peer witness
    (Action S_p); on receiving the ack it schedules the other subject to
    become hungry (Action S_a, [trigger := 1 - i]); and it exits only once
    the other subject is eating too (Action S_x). Hence in the exclusive
    suffix the beginning and end of each subject's eating session overlap
    the other's — the gray regions of Figure 1 — so a witness can never eat
    twice in DX_i without [s_i] eating in between.

    For Lemma 5's bookkeeping the subject logs trace notes
    ["red-ping"]/["red-ack"] with [info = note_info.(i)]. *)

type t = private {
  mutable trigger : int;  (** The paper's [trigger]: which subject is next to become hungry. *)
  ping : bool array;
      (** [ping.(i)] is the paper's [ping_i]: [s_i] may still ping in its
          current session. Read it; only the subject threads write it. *)
  note_info : string array;
      (** [note_info.(i)] is [tag ^ ":" ^ i], the [info] of instance [i]'s
          ping and ack notes. *)
}
(** The subject threads' variables, read as fields: the Lemma monitors
    read them on every tick. *)

val create :
  Dsim.Context.t ->
  tag:string ->
  witness_pid:Dsim.Types.pid ->
  witness_tag:string ->
  dx:Dining.Spec.handle array ->
  unit ->
  Dsim.Component.t * t
(** [dx] are this process's handles in DX_0 and DX_1 (length 2). The
    component runs both threads' actions; register it at [ctx.self]. *)
