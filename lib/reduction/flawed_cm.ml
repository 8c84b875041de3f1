open Dsim

type t = {
  name : string;
  watcher : Types.pid;
  subject : Types.pid;
  suspected : unit -> bool;
  cm_instance : string;
  w_handle : Dining.Spec.handle;
  s_handle : Dining.Spec.handle;
}

let create ~engine ?(detector_name = "flawed-cm") ~dining ~watcher ~subject () =
  if watcher = subject then invalid_arg "Flawed_cm.create: watcher = subject";
  let name = Printf.sprintf "%d>%d" watcher subject in
  let cm_instance = Printf.sprintf "cm[%s]" name in
  let wtag = Printf.sprintf "cw[%s]" name in
  let stag = Printf.sprintf "cs[%s]" name in
  let wctx = Engine.ctx engine watcher in
  let sctx = Engine.ctx engine subject in
  let w_comp, w_handle = dining wctx ~instance:cm_instance ~participants:(watcher, subject) in
  Engine.register engine watcher w_comp;
  let s_comp, s_handle = dining sctx ~instance:cm_instance ~participants:(watcher, subject) in
  Engine.register engine subject s_comp;
  (* ---- subject side: heartbeats + glutton client ---- *)
  let next_hb = ref 0 in
  let requested = ref false in
  let send_heartbeats =
    Component.action "cm-heartbeat"
      ~guard:(fun () -> sctx.Context.now () >= !next_hb)
      ~body:(fun () ->
        next_hb := sctx.Context.now () + 4;
        sctx.Context.send ~dst:watcher ~tag:wtag Messages.Heartbeat_cm)
  in
  let request_once =
    Component.action "cm-enter-forever"
      ~guard:(fun () ->
        (not !requested)
        && match s_handle.Dining.Spec.phase with Types.Thinking -> true | _ -> false)
      ~body:(fun () ->
        requested := true;
        Dining.Spec.hungry s_handle)
    (* ... and never exits: there is no exit action. *)
  in
  Engine.register engine subject
    (Component.make ~name:stag ~actions:[ send_heartbeats; request_once ] ());
  (* ---- watcher side ---- *)
  let suspect_q = ref true in
  let heard = ref false in
  let set_suspect v =
    if v <> !suspect_q then begin
      suspect_q := v;
      wctx.Context.log
        (if v then Trace.Suspect { detector = detector_name; owner = watcher; target = subject }
         else Trace.Trust { detector = detector_name; owner = watcher; target = subject })
    end
  in
  let request_on_heartbeat =
    Component.action "cm-request"
      ~guard:(fun () ->
        !heard && match w_handle.Dining.Spec.phase with Types.Thinking -> true | _ -> false)
      ~body:(fun () ->
        heard := false;
        Dining.Spec.hungry w_handle)
  in
  let exit_and_suspect =
    Component.action "cm-exit"
      ~guard:(fun () -> match w_handle.Dining.Spec.phase with Types.Eating -> true | _ -> false)
      ~body:(fun () ->
        set_suspect true;
        Dining.Spec.exit_eating w_handle)
  in
  let on_receive ~src msg =
    match msg with
    | Messages.Heartbeat_cm when src = subject ->
        set_suspect false;
        heard := true
    | _ -> ()
  in
  Engine.register engine watcher
    (Component.make ~name:wtag ~actions:[ request_on_heartbeat; exit_and_suspect ] ~on_receive
       ());
  {
    name;
    watcher;
    subject;
    suspected = (fun () -> !suspect_q);
    cm_instance;
    w_handle;
    s_handle;
  }
