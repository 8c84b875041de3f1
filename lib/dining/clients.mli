(** Reusable diner clients (the application side of the dining service).

    A client drives the thinking -> hungry and eating -> exiting transitions
    of one diner; the dining algorithm supplies hungry -> eating and
    exiting -> thinking. The paper requires correct diners to eat for finite
    (not necessarily bounded) time; these clients respect that unless
    explicitly configured otherwise ({!glutton}). *)

val greedy :
  Dsim.Context.t ->
  handle:Spec.handle ->
  ?eat_ticks:int ->
  ?think_ticks:int ->
  unit ->
  Dsim.Component.t
(** Perpetually re-hungry diner: thinks for [think_ticks], eats for
    [eat_ticks], repeats forever. *)

val n_sessions :
  Dsim.Context.t ->
  handle:Spec.handle ->
  sessions:int ->
  ?eat_ticks:int ->
  ?think_ticks:int ->
  unit ->
  Dsim.Component.t * (unit -> int)
(** Like {!greedy} but stops after [sessions] completed meals; also returns
    a counter of completed meals. *)

val glutton :
  Dsim.Context.t ->
  handle:Spec.handle ->
  unit ->
  Dsim.Component.t
(** Becomes hungry once and never exits its critical section — the
    spec-violating client at the heart of the Section 3 vulnerability. *)
