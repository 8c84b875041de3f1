open Dsim

type t = {
  component : Component.t;
  trigger : unit -> int;
  ping_flag : int -> bool;
  note_info : string array;
}

let create (ctx : Context.t) ~tag ~witness_pid ~witness_tag ~dx () =
  assert (Array.length dx = 2);
  let self = ctx.Context.self in
  let trigger = ref 0 in
  let ping = [| true; true |] in
  let phase i = (dx.(i) : Dining.Spec.handle).Dining.Spec.phase () in
  (* The pings and the ping and ack notes are built once here and sent or
     logged as they are. *)
  let pings = [| Messages.Ping 0; Messages.Ping 1 |] in
  let note_info = [| tag ^ ":0"; tag ^ ":1" |] in
  let note label i = Trace.Note { pid = self; label; info = note_info.(i) } in
  let pinged = [| note "red-ping" 0; note "red-ping" 1 |]
  and acked = [| note "red-ack" 0; note "red-ack" 1 |] in
  (* Action S_h: {(s_i = thinking) /\ (trigger = i)} *)
  let s_h i =
    Component.action (Printf.sprintf "S_h[%d]" i)
      ~guard:(fun () -> Types.phase_equal (phase i) Types.Thinking && !trigger = i)
      ~body:(fun () -> dx.(i).Dining.Spec.hungry ())
  in
  (* Action S_p: {(s_i = eating) /\ (s_{1-i} <> eating) /\ ping_i} *)
  let s_p i =
    Component.action (Printf.sprintf "S_p[%d]" i)
      ~guard:(fun () ->
        Types.phase_equal (phase i) Types.Eating
        && (not (Types.phase_equal (phase (1 - i)) Types.Eating))
        && ping.(i))
      ~body:(fun () ->
        ctx.Context.send ~dst:witness_pid ~tag:witness_tag pings.(i);
        ctx.Context.log pinged.(i);
        ping.(i) <- false)
  in
  (* Action S_x: {(s_i = eating) /\ (s_{1-i} = eating) /\ (trigger = 1-i)} *)
  let s_x i =
    Component.action (Printf.sprintf "S_x[%d]" i)
      ~guard:(fun () ->
        Types.phase_equal (phase i) Types.Eating
        && Types.phase_equal (phase (1 - i)) Types.Eating
        && !trigger = 1 - i)
      ~body:(fun () ->
        ping.(i) <- true;
        dx.(i).Dining.Spec.exit_eating ())
  in
  (* Action S_a: upon receive ack from p.w_i. *)
  let on_receive ~src msg =
    match msg with
    | Messages.Ack i when src = witness_pid ->
        ctx.Context.log acked.(i);
        trigger := 1 - i
    | _ -> ()
  in
  let component =
    Component.make ~name:tag
      ~actions:[ s_h 0; s_p 0; s_x 0; s_h 1; s_p 1; s_x 1 ]
      ~on_receive ()
  in
  { component; trigger = (fun () -> !trigger); ping_flag = (fun i -> ping.(i)); note_info }
