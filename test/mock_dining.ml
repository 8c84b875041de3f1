(* A scripted dining service for unit-testing the reduction's action
   systems in isolation: the *test* decides exactly when each diner is
   scheduled to eat, so Algorithms 1 and 2 can be exercised under arbitrary
   legal (and barely-legal) schedules without any real dining algorithm in
   the loop. *)

open Dsim

type t = {
  handle : Dining.Spec.handle;
  grant : unit -> unit;  (** hungry -> eating (test-controlled). *)
  finish_exit : unit -> unit;  (** exiting -> thinking (test-controlled). *)
}

(* The mock needs no component: the test mutates phases directly between
   engine steps, which models a dining layer scheduling at arbitrary
   instants. *)
let create ctx ~instance =
  let cell = Dining.Spec.Cell.create ctx ~instance in
  let handle = Dining.Spec.Cell.handle cell in
  {
    handle;
    grant =
      (fun () ->
        assert (Types.phase_equal handle.Dining.Spec.phase Types.Hungry);
        Dining.Spec.Cell.set cell Types.Eating);
    finish_exit =
      (fun () ->
        assert (Types.phase_equal handle.Dining.Spec.phase Types.Exiting);
        Dining.Spec.Cell.set cell Types.Thinking);
  }

(* Step the engine until [cond] holds or [max] ticks pass; returns success. *)
let step_until engine ~max cond =
  let deadline = Engine.now engine + max in
  Engine.run_while engine ~max:deadline (fun () -> not (cond ()));
  cond ()
