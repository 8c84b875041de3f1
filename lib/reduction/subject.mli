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

type t = {
  component : Dsim.Component.t;
  trigger : unit -> int;
  ping_flag : int -> bool;
  note_info : string array;
      (** [note_info.(i)] is [tag ^ ":" ^ i], the [info] of instance [i]'s
          ping and ack notes. *)
}

val create :
  Dsim.Context.t ->
  tag:string ->
  witness_pid:Dsim.Types.pid ->
  witness_tag:string ->
  dx:Dining.Spec.handle array ->
  unit ->
  t
