(** The flawed ◇P extraction of [8] (Section 3), reproduced verbatim.

    One dining instance is used as a wait-free contention manager for the
    ordered pair (p, q):

    - upon initialisation q sends heartbeats to p at regular intervals and
      requests permission for obstruction-free access; upon being granted,
      q enters its critical section {e and never exits};
    - p, upon receiving a heartbeat, trusts q and requests permission; upon
      being granted, p enters and immediately exits its critical section,
      suspects q, and waits for another heartbeat before starting over.

    The intended argument: if q crashes, wait-freedom lets p eat (and the
    heartbeats stop), so p permanently suspects q; if q is correct, the
    eventually-exclusive manager locks p out forever behind the perpetually
    eating q, so p eventually trusts q forever.

    The vulnerability: a [12]-style black box guarantees the exclusive
    suffix only after every diner that entered its critical section during
    the oracle's mistake-prone prefix has exited. A correct q that entered
    during that prefix and never exits voids the guarantee, p keeps eating
    — and keeps suspecting the correct q — forever, violating eventual
    strong accuracy. The paper's two-instance hand-off reduction closes
    exactly this hole; the V1 bench shows both behaviours side by side. *)

type t = {
  name : string;
  watcher : Dsim.Types.pid;
  subject : Dsim.Types.pid;
  suspected : unit -> bool;
  cm_instance : string;
  w_handle : Dining.Spec.handle;
  s_handle : Dining.Spec.handle;
}

val create :
  engine:Dsim.Engine.t ->
  ?detector_name:string ->
  dining:Pair.dining_factory ->
  watcher:Dsim.Types.pid ->
  subject:Dsim.Types.pid ->
  unit ->
  t
