open Dsim

type t = {
  mutable trigger : int;
  ping : bool array;
  note_info : string array;
}

let eating (h : Dining.Spec.handle) =
  match h.Dining.Spec.phase with Types.Eating -> true | _ -> false

let create (ctx : Context.t) ~tag ~witness_pid ~witness_tag ~dx () =
  assert (Array.length dx = 2);
  let self = ctx.Context.self in
  (* The pings and the ping and ack notes are built once here and sent or
     logged as they are. *)
  let pings = [| Messages.Ping 0; Messages.Ping 1 |] in
  let note_info = [| tag ^ ":0"; tag ^ ":1" |] in
  let note label i = Trace.Note { pid = self; label; info = note_info.(i) } in
  let pinged = [| note "red-ping" 0; note "red-ping" 1 |]
  and acked = [| note "red-ack" 0; note "red-ack" 1 |] in
  let t = { trigger = 0; ping = [| true; true |]; note_info } in
  (* Action S_h: {(s_i = thinking) /\ (trigger = i)} *)
  let s_h i =
    let s_i : Dining.Spec.handle = dx.(i) in
    Component.action (Printf.sprintf "S_h[%d]" i)
      ~guard:(fun () ->
        (match s_i.Dining.Spec.phase with Types.Thinking -> true | _ -> false) && t.trigger = i)
      ~body:(fun () -> Dining.Spec.hungry s_i)
  in
  (* Action S_p: {(s_i = eating) /\ (s_{1-i} <> eating) /\ ping_i} *)
  let s_p i =
    let s_i = dx.(i) and s_other = dx.(1 - i) in
    Component.action (Printf.sprintf "S_p[%d]" i)
      ~guard:(fun () -> eating s_i && (not (eating s_other)) && t.ping.(i))
      ~body:(fun () ->
        ctx.Context.send ~dst:witness_pid ~tag:witness_tag pings.(i);
        ctx.Context.log pinged.(i);
        t.ping.(i) <- false)
  in
  (* Action S_x: {(s_i = eating) /\ (s_{1-i} = eating) /\ (trigger = 1-i)} *)
  let s_x i =
    let s_i = dx.(i) and s_other = dx.(1 - i) in
    Component.action (Printf.sprintf "S_x[%d]" i)
      ~guard:(fun () -> eating s_i && eating s_other && t.trigger = 1 - i)
      ~body:(fun () ->
        t.ping.(i) <- true;
        Dining.Spec.exit_eating s_i)
  in
  (* Action S_a: upon receive ack from p.w_i. *)
  let on_receive ~src msg =
    match msg with
    | Messages.Ack i when src = witness_pid ->
        ctx.Context.log acked.(i);
        t.trigger <- 1 - i
    | _ -> ()
  in
  let component =
    Component.make ~name:tag
      ~actions:[ s_h 0; s_p 0; s_x 0; s_h 1; s_p 1; s_x 1 ]
      ~on_receive ()
  in
  (component, t)
