(** One contention-managed deployment (Sections 2-3): process 0 serves
    the {!Store}, and processes 1 to n-1 run transactional {!Client}s.
    With a contention manager, each client also runs a heartbeat ◇P over
    the clients and a WF-◇WX diner (instance ["cm"]) on the clients'
    clique, and holds its critical section for a whole transaction. *)

type t = {
  store : Store.stats;
  clients : (Dsim.Types.pid * Client.stats) list;  (** In pid order. *)
}

val setup : engine:Dsim.Engine.t -> with_cm:bool -> ?compute_ticks:int -> unit -> t
(** Register every component on the engine, whose [n] is the number of
    clients plus one. [compute_ticks] is {!Client.component}'s. *)
