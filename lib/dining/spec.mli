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

type observers
(** Where a phase change goes: the process's trace and the client's
    callback. Only {!Cell.set} reads it. *)

type handle = private {
  instance : string;
  self : Dsim.Types.pid;
  mutable phase : Dsim.Types.phase;
      (** The diner's current phase, written only by {!Cell.set}. Guards
          and per-tick hooks read it as a field and test it with a
          [match]: a read costs one load, where a call through a closure
          or across modules (never inlined under the dev profile's
          [-opaque]) costs a call. *)
  observers : observers;
}
(** A diner's phase cell, read-only: the algorithm that built it writes
    through {!Cell.set}, and its client moves it with {!hungry} and
    {!exit_eating}. *)

val hungry : handle -> unit
(** Request the critical section. Raises [Invalid_argument] unless
    [Thinking]. *)

val exit_eating : handle -> unit
(** Relinquish the critical section. Raises [Invalid_argument] unless
    [Eating]. *)

val set_on_transition : handle -> (Dsim.Types.phase -> Dsim.Types.phase -> unit) -> unit
(** Register the callback fired after every phase transition, replacing
    the previous one. *)

(** The write capability for a diner's phase, held by the algorithm that
    schedules it: transitions are logged to the trace under the instance
    name and forwarded to the client callback. *)
module Cell : sig
  type t

  val create : Dsim.Context.t -> instance:string -> t

  val set : t -> Dsim.Types.phase -> unit
  (** [set t ph] moves the diner to [ph], logs the transition and fires the
      client callback; setting the current phase does nothing. Raises
      [Invalid_argument], naming the instance, the pid and both phases,
      when [ph] is neither the current phase nor the one that follows it
      in the cycle; the phase and the trace are then left unchanged. *)

  val handle : t -> handle
  (** The cell itself, as its clients and readers see it. *)
end
