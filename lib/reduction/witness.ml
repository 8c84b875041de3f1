open Dsim

type t = {
  mutable switch : int;
  haveping : bool array;
  mutable suspect_q : bool;
}

let thinking (h : Dining.Spec.handle) =
  match h.Dining.Spec.phase with Types.Thinking -> true | _ -> false

let create (ctx : Context.t) ~tag ~subject_pid ~subject_tag ~dx ~detector_name () =
  assert (Array.length dx = 2);
  let self = ctx.Context.self in
  let t = { switch = 0; haveping = [| false; false |]; suspect_q = true } in
  (* Each ack is built once here and sent as it is. *)
  let acks = [| Messages.Ack 0; Messages.Ack 1 |] in
  let set_suspect v =
    if v <> t.suspect_q then begin
      t.suspect_q <- v;
      ctx.Context.log
        (if v then Trace.Suspect { detector = detector_name; owner = self; target = subject_pid }
         else Trace.Trust { detector = detector_name; owner = self; target = subject_pid })
    end
  in
  (* Action W_h: {(w_i = thinking) /\ (w_{1-i} = thinking) /\ (switch = i)} *)
  let w_h i =
    let w_i = dx.(i) and w_other = dx.(1 - i) in
    Component.action (Printf.sprintf "W_h[%d]" i)
      ~guard:(fun () -> thinking w_i && thinking w_other && t.switch = i)
      ~body:(fun () -> Dining.Spec.hungry w_i)
  in
  (* Action W_x: {w_i = eating} — rule on q, hand the turn over, exit. *)
  let w_x i =
    let w_i : Dining.Spec.handle = dx.(i) in
    Component.action (Printf.sprintf "W_x[%d]" i)
      ~guard:(fun () -> match w_i.Dining.Spec.phase with Types.Eating -> true | _ -> false)
      ~body:(fun () ->
        set_suspect (not t.haveping.(i));
        t.haveping.(i) <- false;
        t.switch <- 1 - i;
        Dining.Spec.exit_eating w_i)
  in
  (* Action W_p: upon receive ping from subject q.s_i. *)
  let on_receive ~src msg =
    match msg with
    | Messages.Ping i when src = subject_pid ->
        t.haveping.(i) <- true;
        ctx.Context.send ~dst:subject_pid ~tag:subject_tag acks.(i)
    | _ -> ()
  in
  let component =
    Component.make ~name:tag ~actions:[ w_h 0; w_x 0; w_h 1; w_x 1 ] ~on_receive ()
  in
  (component, t)
