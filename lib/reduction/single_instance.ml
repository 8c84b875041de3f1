open Dsim

type t = {
  name : string;
  watcher : Types.pid;
  subject : Types.pid;
  suspected : unit -> bool;
  instance : string;
}

let create ~engine ?(detector_name = "single-inst") ~dining ~watcher ~subject () =
  if watcher = subject then invalid_arg "Single_instance.create: watcher = subject";
  let name = Printf.sprintf "%d>%d" watcher subject in
  let instance = Printf.sprintf "si[%s]" name in
  let wtag = Printf.sprintf "siw[%s]" name in
  let stag = Printf.sprintf "sis[%s]" name in
  let wctx = Engine.ctx engine watcher in
  let sctx = Engine.ctx engine subject in
  let w_comp, w_handle = dining wctx ~instance ~participants:(watcher, subject) in
  Engine.register engine watcher w_comp;
  let s_comp, s_handle = dining sctx ~instance ~participants:(watcher, subject) in
  Engine.register engine subject s_comp;
  (* Witness: one thread, one instance. *)
  let suspect_q = ref true in
  let haveping = ref false in
  let set_suspect v =
    if v <> !suspect_q then begin
      suspect_q := v;
      wctx.Context.log
        (if v then Trace.Suspect { detector = detector_name; owner = watcher; target = subject }
         else Trace.Trust { detector = detector_name; owner = watcher; target = subject })
    end
  in
  let w_hungry =
    Component.action "siw-hungry"
      ~guard:(fun () ->
        match w_handle.Dining.Spec.phase with Types.Thinking -> true | _ -> false)
      ~body:(fun () -> Dining.Spec.hungry w_handle)
  in
  let w_judge =
    Component.action "siw-judge"
      ~guard:(fun () -> match w_handle.Dining.Spec.phase with Types.Eating -> true | _ -> false)
      ~body:(fun () ->
        set_suspect (not !haveping);
        haveping := false;
        Dining.Spec.exit_eating w_handle)
  in
  let w_receive ~src msg =
    match msg with
    | Messages.Ping _ when src = subject ->
        haveping := true;
        wctx.Context.send ~dst:subject ~tag:stag (Messages.Ack 0)
    | _ -> ()
  in
  Engine.register engine watcher
    (Component.make ~name:wtag ~actions:[ w_hungry; w_judge ] ~on_receive:w_receive ());
  (* Subject: eat, ping, exit on ack, repeat. *)
  let pinged = ref false in
  let acked = ref false in
  let s_eating () = match s_handle.Dining.Spec.phase with Types.Eating -> true | _ -> false in
  let s_hungry =
    Component.action "sis-hungry"
      ~guard:(fun () ->
        match s_handle.Dining.Spec.phase with Types.Thinking -> true | _ -> false)
      ~body:(fun () ->
        pinged := false;
        acked := false;
        Dining.Spec.hungry s_handle)
  in
  let s_ping =
    Component.action "sis-ping"
      ~guard:(fun () -> s_eating () && not !pinged)
      ~body:(fun () ->
        pinged := true;
        sctx.Context.send ~dst:watcher ~tag:wtag (Messages.Ping 0))
  in
  let s_exit =
    Component.action "sis-exit"
      ~guard:(fun () -> s_eating () && !acked)
      ~body:(fun () -> Dining.Spec.exit_eating s_handle)
  in
  let s_receive ~src msg =
    match msg with
    | Messages.Ack _ when src = watcher -> acked := true
    | _ -> ()
  in
  Engine.register engine subject
    (Component.make ~name:stag ~actions:[ s_hungry; s_ping; s_exit ] ~on_receive:s_receive ());
  { name; watcher; subject; suspected = (fun () -> !suspect_q); instance }
