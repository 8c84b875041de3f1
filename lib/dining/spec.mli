(** Dining-service interface shared by all scheduling algorithms.

    A dining solution schedules diner transitions hungry -> eating. Clients
    drive the thinking -> hungry and eating -> exiting transitions through a
    {!handle}; the algorithm drives hungry -> eating (when it grants the
    critical section) and exiting -> thinking (when relinquishment
    completes, which the spec requires to take finite time). *)

val legal_transitions : (Dsim.Types.phase * Dsim.Types.phase) list
(** The paper's Section-4 state machine as data: the exact set of legal
    diner transitions, [Thinking -> Hungry -> Eating -> Exiting ->
    Thinking]. {!Cell.set} refuses every write outside it. *)

val legal_transition : from_:Dsim.Types.phase -> to_:Dsim.Types.phase -> bool
(** [legal_transition ~from_ ~to_] is membership in {!legal_transitions}:
    [to_] is the one phase that follows [from_]. *)

val precedes : int -> Dsim.Types.pid -> int -> Dsim.Types.pid -> bool
(** [precedes ts p ts' p'] is the priority order the timestamped
    algorithms share: [(ts, p)] before [(ts', p')] lexicographically. It
    compares the integers directly, so a guard that evaluates it builds no
    pair and makes no polymorphic-compare call. *)

type handle = {
  instance : string;
  self : Dsim.Types.pid;
  phase : unit -> Dsim.Types.phase;
  hungry : unit -> unit;
      (** Request the critical section. Only legal while [Thinking]. *)
  exit_eating : unit -> unit;
      (** Relinquish the critical section. Only legal while [Eating]. *)
  set_on_transition : (Dsim.Types.phase -> Dsim.Types.phase -> unit) -> unit;
      (** Register a callback fired after every phase transition. *)
}

(** Mutable diner-phase cell used by algorithm implementations: transitions
    are logged to the trace under the instance name and forwarded to the
    client callback. *)
module Cell : sig
  type t

  val create : Dsim.Context.t -> instance:string -> t
  val phase : t -> Dsim.Types.phase

  val set : t -> Dsim.Types.phase -> unit
  (** [set t ph] moves the diner to [ph], logs the transition and fires the
      client callback; setting the current phase does nothing. Raises
      [Invalid_argument], naming the instance, the pid and both phases,
      when [ph] is neither the current phase nor the one that follows it
      in the cycle; the phase and the trace are then left unchanged. *)

  val handle : t -> t * handle
  (** The cell together with the client-facing handle; [hungry] and
      [exit_eating] check phase legality and raise [Invalid_argument] on
      misuse. *)
end
