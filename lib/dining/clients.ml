open Dsim

let build (ctx : Context.t) ~handle ~eat_ticks ~think_ticks ~limit =
  let completed = ref 0 in
  let became_eating = ref (-1) in
  let became_thinking = ref 0 in
  Spec.set_on_transition handle (fun _ to_ ->
      match to_ with
      | Types.Eating -> became_eating := ctx.Context.now ()
      | Types.Thinking -> became_thinking := ctx.Context.now ()
      | Types.Exiting -> incr completed
      | Types.Hungry -> ());
  let may_start () = match limit with None -> true | Some k -> !completed < k in
  let get_hungry =
    Component.action "client-hungry"
      ~guard:(fun () ->
        may_start ()
        && (match handle.Spec.phase with Types.Thinking -> true | _ -> false)
        && ctx.Context.now () - !became_thinking >= think_ticks)
      ~body:(fun () -> Spec.hungry handle)
  in
  let stop_eating =
    Component.action "client-exit"
      ~guard:(fun () ->
        (match handle.Spec.phase with Types.Eating -> true | _ -> false)
        && ctx.Context.now () - !became_eating >= eat_ticks)
      ~body:(fun () -> Spec.exit_eating handle)
  in
  ( Component.make ~name:("client:" ^ handle.Spec.instance)
      ~actions:[ get_hungry; stop_eating ] (),
    fun () -> !completed )

let greedy ctx ~handle ?(eat_ticks = 3) ?(think_ticks = 2) () =
  fst (build ctx ~handle ~eat_ticks ~think_ticks ~limit:None)

let n_sessions ctx ~handle ~sessions ?(eat_ticks = 3) ?(think_ticks = 2) () =
  build ctx ~handle ~eat_ticks ~think_ticks ~limit:(Some sessions)

let glutton _ctx ~handle () =
  let get_hungry =
    Component.action "client-glutton"
      ~guard:(fun () -> match handle.Spec.phase with Types.Thinking -> true | _ -> false)
      ~body:(fun () -> Spec.hungry handle)
  in
  Component.make ~name:("client:" ^ handle.Spec.instance) ~actions:[ get_hungry ] ()
