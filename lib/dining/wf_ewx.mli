(** Wait-free dining under eventual weak exclusion, driven by ◇P.

    This is the [12]-style black box the paper's reduction assumes:
    fork-based dining with timestamped request priorities, extended with a
    {e suspicion override} — a hungry diner treats a neighbor currently
    suspected by its local ◇P module as absent and may eat without that
    neighbor's fork ("virtual fork").

    One fork per edge; a hungry diner stamps its session with a Lamport
    timestamp and requests every missing fork once per session. A holder
    surrenders a requested fork unless it is eating with it or is itself
    hungry with higher priority (smaller [(timestamp, pid)]). Timestamps
    grow along message chains, so the priority order is total, acyclic by
    construction, and — crucially — {e self-stabilizing}: scheduling
    mistakes made while ◇P still errs (virtual meals) cannot poison any
    persistent precedence state, unlike dirty/clean-fork hygiene, where a
    virtual meal fails to flip the eater's un-held edges and can leave a
    permanent clean-fork cycle once the oracle converges.

    Guarantees (checked empirically by {!Monitor} in the tests/benches):

    - {e Wait-freedom}: if correct diners eat for finite time, every correct
      hungry diner eventually eats, regardless of crashes. Crashed neighbors
      are eventually permanently suspected (◇P strong completeness), so
      their forks are never awaited forever; among live diners the globally
      minimal [(timestamp, pid)] request is never refused.
    - {e Eventual weak exclusion}: each false suspicion can cause a
      simultaneous-eating mistake, but ◇P errs only finitely often, so runs
      converge to an exclusive suffix — {e after the oracle converges and
      every mistaken eater has exited}. That convergence caveat is exactly
      the property of [12] on which the Section 3 vulnerability of the [8]
      construction rests, and this implementation reproduces it faithfully.

    With [suspicion_override:false] the algorithm never eats without the
    real forks: perpetually exclusive, but starving once a fork holder
    crashes (the crash-intolerant baseline — see {!Hygienic}). *)

type Dsim.Msg.t += Fork | Request of int (** exposed for white-box monitors *)

type config = {
  suspicion_override : bool;
}

val default_config : config

type debug = {
  has_fork : Dsim.Types.pid -> bool;
  peer_requesting : Dsim.Types.pid -> bool;
      (** A request from that neighbor is pending here. *)
  eating_virtually : unit -> bool;
      (** True while eating with at least one fork replaced by suspicion. *)
}

val component :
  Dsim.Context.t ->
  instance:string ->
  graph:Graphs.Conflict_graph.t ->
  suspects:(unit -> Dsim.Types.Pidset.t) ->
  ?config:config ->
  unit ->
  Dsim.Component.t * Spec.handle * debug
(** Build the diner of process [ctx.self] in dining instance [instance]
    (which doubles as the message-routing tag, so it must be globally
    unique). Every process in [graph] must register a component built with
    the same [instance] and [graph]. [suspects] is the local ◇P module. *)
