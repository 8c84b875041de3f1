(* White-box unit tests of Algorithms 1 and 2 against a scripted (mock)
   dining service: the tests play the role of the black box and schedule
   every hungry->eating and exiting->thinking transition by hand. *)

open Dsim

let check = Alcotest.(check bool)
let check_phase = Alcotest.(check string)

let phase_str (m : Mock_dining.t) = Types.phase_to_string m.Mock_dining.handle.Dining.Spec.phase

(* A witness at p0 and a subject at p1 over two mock instances. *)
type rig = {
  engine : Engine.t;
  witness : Reduction.Witness.t;
  subject : Reduction.Subject.t;
  w : Mock_dining.t array;
  s : Mock_dining.t array;
}

let make_rig ?(seed = 1L) () =
  let engine = Engine.create ~seed ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let wctx = Engine.ctx engine 0 and sctx = Engine.ctx engine 1 in
  let w = Array.init 2 (fun i -> Mock_dining.create wctx ~instance:(Printf.sprintf "mdx%d" i)) in
  let s = Array.init 2 (fun i -> Mock_dining.create sctx ~instance:(Printf.sprintf "mdx%d" i)) in
  let witness_comp, witness =
    Reduction.Witness.create wctx ~tag:"w[m]" ~subject_pid:1 ~subject_tag:"s[m]"
      ~dx:(Array.map (fun m -> m.Mock_dining.handle) w)
      ~detector_name:"extracted" ()
  in
  Engine.register engine 0 witness_comp;
  let subject_comp, subject =
    Reduction.Subject.create sctx ~tag:"s[m]" ~witness_pid:0 ~witness_tag:"w[m]"
      ~dx:(Array.map (fun m -> m.Mock_dining.handle) s)
      ()
  in
  Engine.register engine 1 subject_comp;
  { engine; witness; subject; w; s }

let hungry m () = Types.phase_equal m.Mock_dining.handle.Dining.Spec.phase Types.Hungry
let exiting m () = Types.phase_equal m.Mock_dining.handle.Dining.Spec.phase Types.Exiting
let until r = Mock_dining.step_until r.engine ~max:200

(* ------------------------------------------------------------------ *)

let test_witness_initial_turn () =
  let r = make_rig () in
  (* W_h: w0 becomes hungry first (switch = 0); w1 must stay thinking. *)
  check "w0 gets hungry" true (until r (hungry r.w.(0)));
  check_phase "w1 still thinking" "thinking" (phase_str r.w.(1));
  check "witness starts suspecting" true r.witness.Reduction.Witness.suspect_q

let test_witness_judges_and_hands_over () =
  let r = make_rig () in
  ignore (until r (hungry r.w.(0)));
  (* Schedule w0 to eat with no ping received: W_x must suspect, flip the
     switch, and exit. *)
  r.w.(0).Mock_dining.grant ();
  check "w0 exits" true (until r (exiting r.w.(0)));
  check "still suspects (no ping ever)" true r.witness.Reduction.Witness.suspect_q;
  Alcotest.(check int) "switch flipped" 1 r.witness.Reduction.Witness.switch;
  (* w1 only becomes hungry after w0 is back to thinking (Lemma 9). *)
  Engine.run r.engine ~until:(Engine.now r.engine + 50);
  check_phase "w1 waits for w0 to finish exiting" "thinking" (phase_str r.w.(1));
  r.w.(0).Mock_dining.finish_exit ();
  check "now w1 gets hungry" true (until r (hungry r.w.(1)))

let test_subject_handoff_order () =
  let r = make_rig () in
  (* S_h: s0 first (trigger = 0); s1 must wait. *)
  check "s0 gets hungry" true (until r (hungry r.s.(0)));
  check_phase "s1 still thinking" "thinking" (phase_str r.s.(1));
  (* Grant s0: it pings, and on the ack it triggers s1 — but does NOT exit
     until s1 is eating (Action S_x). *)
  r.s.(0).Mock_dining.grant ();
  check "s1 eventually hungry (ack arrived, trigger flipped)" true (until r (hungry r.s.(1)));
  Alcotest.(check int) "trigger now 1" 1 r.subject.Reduction.Subject.trigger;
  Engine.run r.engine ~until:(Engine.now r.engine + 50);
  check_phase "s0 keeps eating until s1 eats" "eating" (phase_str r.s.(0));
  r.s.(1).Mock_dining.grant ();
  check "s0 exits once s1 eats (hand-off overlap)" true (until r (exiting r.s.(0)))

let test_subject_pings_once_per_session () =
  let r = make_rig () in
  ignore (until r (hungry r.s.(0)));
  r.s.(0).Mock_dining.grant ();
  ignore (until r (hungry r.s.(1)));
  Engine.run r.engine ~until:(Engine.now r.engine + 100);
  let pings =
    List.length (Trace.notes ~pid:1 ~label:"red-ping" (Engine.trace r.engine))
  in
  Alcotest.(check int) "exactly one ping in s0's session" 1 pings;
  (* ping flag re-arms only at exit (Lemma 2's machinery) *)
  check "ping_0 spent" false (r.subject.Reduction.Subject.ping.(0));
  check "ping_1 still armed" true (r.subject.Reduction.Subject.ping.(1))

let test_witness_trusts_after_ping () =
  let r = make_rig () in
  (* Run the full first exchange: s0 eats and pings; then w0 eats. *)
  ignore (until r (hungry r.s.(0)));
  ignore (until r (hungry r.w.(0)));
  r.s.(0).Mock_dining.grant ();
  ignore (until r (hungry r.s.(1)));
  (* the ping has certainly arrived at p0 by now (ack was returned) *)
  check "haveping_0 set" true (r.witness.Reduction.Witness.haveping.(0));
  r.w.(0).Mock_dining.grant ();
  ignore (until r (exiting r.w.(0)));
  check "witness now trusts q" false r.witness.Reduction.Witness.suspect_q;
  check "haveping_0 consumed" false (r.witness.Reduction.Witness.haveping.(0))

let test_witness_double_meal_without_ping_suspects () =
  (* The exact failure mode the hand-off prevents in real runs, forced by
     hand: two witness meals in a row with no subject meal between them
     reset haveping and flip the verdict back to suspicion. *)
  let r = make_rig () in
  ignore (until r (hungry r.s.(0)));
  ignore (until r (hungry r.w.(0)));
  r.s.(0).Mock_dining.grant ();
  ignore (until r (hungry r.s.(1)));
  r.w.(0).Mock_dining.grant ();
  ignore (until r (exiting r.w.(0)));
  check "trusts after first meal" false r.witness.Reduction.Witness.suspect_q;
  r.w.(0).Mock_dining.finish_exit ();
  ignore (until r (hungry r.w.(1)));
  (* w1 eats although s1 never pinged: verdict flips to suspect. *)
  r.w.(1).Mock_dining.grant ();
  ignore (until r (exiting r.w.(1)));
  check "suspects again after meal without ping" true
    r.witness.Reduction.Witness.suspect_q

let test_subject_blocks_without_ack () =
  (* Section 8's 'potentially infinite eating session': if the witness side
     never acks (we simply never let the witness component see the ping by
     crashing p0), the subject stays in its critical section forever. *)
  let r = make_rig () in
  Engine.crash_now r.engine 0;
  ignore (until r (hungry r.s.(0)));
  r.s.(0).Mock_dining.grant ();
  Engine.run r.engine ~until:(Engine.now r.engine + 300);
  check_phase "s0 eats forever without the ack" "eating" (phase_str r.s.(0));
  check_phase "s1 never triggered" "thinking" (phase_str r.s.(1))

let () =
  Alcotest.run "algorithms"
    [
      ( "witness (Algorithm 1)",
        [
          Alcotest.test_case "initial turn" `Quick test_witness_initial_turn;
          Alcotest.test_case "judge + hand over" `Quick test_witness_judges_and_hands_over;
          Alcotest.test_case "trusts after ping" `Quick test_witness_trusts_after_ping;
          Alcotest.test_case "double meal without ping suspects" `Quick
            test_witness_double_meal_without_ping_suspects;
        ] );
      ( "subject (Algorithm 2)",
        [
          Alcotest.test_case "hand-off order" `Quick test_subject_handoff_order;
          Alcotest.test_case "one ping per session" `Quick test_subject_pings_once_per_session;
          Alcotest.test_case "blocks without ack (Section 8)" `Quick
            test_subject_blocks_without_ack;
        ] );
    ]
