(* simlint: allow D005 — fixture corpus file *)
(* D014: [Mf_fork_pass] is constructed and sent but no handler arm anywhere
   in the corpus matches it — the engine would deliver it into a peer's
   catch-all and the hand-off would silently stall. The sender gives up
   its fork before the send, so the fixture's only fault is the missing
   handler. *)
type Msg.t += Mf_fork_pass of int

type state = { mutable fork_held : bool }

let pass_fork ctx st ~dst =
  st.fork_held <- false;
  ctx.send ~dst (Mf_fork_pass dst)
