(* A deliberately broken dining variant for the shrinker self-test.

   [wf-dropfork] is the real WF-◇WX diner except that process 0 silently
   drops the first Fork message it receives: the fork vanishes (the sender
   no longer holds it, p0 never records it), so some edge of p0 can never
   be acquired again and a correct hungry diner starves — a genuine
   wait-freedom violation that a fuzz campaign must catch and shrink.
   The module has no toplevel side effects: the test/dune (tests) stanza
   links it into every test executable. *)

open Dsim

let algo = "wf-dropfork"

let drop_first_fork (comp : Component.t) =
  let dropped = ref false in
  Component.make ~name:comp.Component.cname
    ~actions:(Array.to_list comp.Component.actions)
    ~on_receive:(fun ~src msg ->
      match msg with
      | Dining.Wf_ewx.Fork when not !dropped -> dropped := true
      | _ -> comp.Component.on_receive ~src msg)
    ()

let builder engine ~graph ~instance ~eat_ticks =
  let n = Graphs.Conflict_graph.n graph in
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance ~graph ~suspects:(suspects pid) ()
    in
    let comp = if pid = 0 then drop_first_fork comp else comp in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

(* The default registry plus the broken variant, so corpus artifacts for
   either kind replay through one registry. *)
let registry = (algo, builder) :: Check.Runner.default_registry

(* [exit-hungry] is a diner that eats as soon as it is hungry and, at the
   end of its exit, writes Hungry where the cycle wants Thinking:
   [Spec.Cell.set] refuses the write with [Invalid_argument], so every run
   in which a diner finishes an exit raises. It stands for any component
   that raises, which the runner must report as a failed [no_exception]
   check. It is kept out of [registry], so the configs that other tests
   draw over that registry's algorithms do not change. *)
let exit_hungry = "exit-hungry"

let exit_hungry_builder engine ~graph ~instance ~eat_ticks =
  for pid = 0 to Graphs.Conflict_graph.n graph - 1 do
    let ctx = Engine.ctx engine pid in
    let cell = Dining.Spec.Cell.create ctx ~instance in
    let handle = Dining.Spec.Cell.handle cell in
    let move name ~from_ ~to_ =
      Component.action name
        ~guard:(fun () -> Types.phase_equal handle.Dining.Spec.phase from_)
        ~body:(fun () -> Dining.Spec.Cell.set cell to_)
    in
    Engine.register engine pid
      (Component.make ~name:instance
         ~actions:
           [
             move "eat" ~from_:Types.Hungry ~to_:Types.Eating;
             move "exit" ~from_:Types.Exiting ~to_:Types.Hungry;
           ]
         ());
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let raising_registry = (exit_hungry, exit_hungry_builder) :: registry
