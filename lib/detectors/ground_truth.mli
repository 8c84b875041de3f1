(** Oracle implementations backed by the global fault pattern.

    Some detector classes used by this reproduction (the perfect detector P
    and the trusting detector T) are *not implementable* in asynchronous
    systems — indeed proving exactly that kind of boundary is the point of
    the paper. Where an algorithm (e.g. the FTME substrate of Section 9)
    assumes such an oracle, we model it directly from the simulator's fault
    pattern via the omniscient [is_live] capability. This is the standard
    move when simulating oracle-augmented systems: the oracle's *interface
    guarantees* are what the algorithm relies on, and these implementations
    satisfy them by construction (verified by {!Properties} on every run). *)

val perfect :
  Dsim.Context.t ->
  ?detector_name:string ->
  peers:Dsim.Types.pid list ->
  unit ->
  Dsim.Component.t * Oracle.t
(** P: suspects exactly the crashed processes, immediately. Strong
    completeness + perpetual strong accuracy. *)

val strong :
  Dsim.Context.t ->
  ?detector_name:string ->
  peers:Dsim.Types.pid list ->
  unit ->
  Dsim.Component.t * Oracle.t
(** S: strong completeness + perpetual weak accuracy — some correct process
    (the lowest peer, which must then be correct in the run for the oracle
    to meet its spec) is never suspected by anyone;
    everyone else is suspected once crashed. Used with {!trusting} to model
    the (T + S) composition of [4]. *)

val trusting :
  Dsim.Context.t ->
  ?detector_name:string ->
  ?detection_delay:int ->
  peers:Dsim.Types.pid list ->
  unit ->
  Dsim.Component.t * Oracle.t
(** T: initially trusts everyone; starts suspecting a process only once it
    has been crashed for [detection_delay] ticks, and then permanently.
    Strong completeness + trusting accuracy (a trust is revoked only if the
    process really crashed). The delay models the realistic lag between a
    crash and its detection. *)
