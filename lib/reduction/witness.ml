open Dsim

type t = {
  component : Component.t;
  suspected : unit -> bool;
  haveping : int -> bool;
  switch : unit -> int;
}

let create (ctx : Context.t) ~tag ~subject_pid ~subject_tag ~dx ~detector_name () =
  assert (Array.length dx = 2);
  let self = ctx.Context.self in
  let switch = ref 0 in
  let haveping = [| false; false |] in
  let suspect_q = ref true in
  let phase i = (dx.(i) : Dining.Spec.handle).Dining.Spec.phase () in
  (* Each ack is built once here and sent as it is. *)
  let acks = [| Messages.Ack 0; Messages.Ack 1 |] in
  let set_suspect v =
    if v <> !suspect_q then begin
      suspect_q := v;
      ctx.Context.log
        (if v then Trace.Suspect { detector = detector_name; owner = self; target = subject_pid }
         else Trace.Trust { detector = detector_name; owner = self; target = subject_pid })
    end
  in
  (* Action W_h: {(w_i = thinking) /\ (w_{1-i} = thinking) /\ (switch = i)} *)
  let w_h i =
    Component.action (Printf.sprintf "W_h[%d]" i)
      ~guard:(fun () ->
        Types.phase_equal (phase i) Types.Thinking
        && Types.phase_equal (phase (1 - i)) Types.Thinking
        && !switch = i)
      ~body:(fun () -> dx.(i).Dining.Spec.hungry ())
  in
  (* Action W_x: {w_i = eating} — rule on q, hand the turn over, exit. *)
  let w_x i =
    Component.action (Printf.sprintf "W_x[%d]" i)
      ~guard:(fun () -> Types.phase_equal (phase i) Types.Eating)
      ~body:(fun () ->
        set_suspect (not haveping.(i));
        haveping.(i) <- false;
        switch := 1 - i;
        dx.(i).Dining.Spec.exit_eating ())
  in
  (* Action W_p: upon receive ping from subject q.s_i. *)
  let on_receive ~src msg =
    match msg with
    | Messages.Ping i when src = subject_pid ->
        haveping.(i) <- true;
        ctx.Context.send ~dst:subject_pid ~tag:subject_tag acks.(i)
    | _ -> ()
  in
  let component =
    Component.make ~name:tag ~actions:[ w_h 0; w_x 0; w_h 1; w_x 1 ] ~on_receive ()
  in
  {
    component;
    suspected = (fun () -> !suspect_q);
    haveping = (fun i -> haveping.(i));
    switch = (fun () -> !switch);
  }
