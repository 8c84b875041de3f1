(* Tests for the paper's core contribution: the reduction extracting ◇P
   (resp. T) from black-box WF-◇WX (resp. wait-free WX) dining, plus the
   Section 3 vulnerability of the flawed contention-manager construction. *)

open Dsim

let check = Alcotest.(check bool)
let holds (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

(* ------------------------------------------------------------------ *)
(* Builders *)

type extraction_run = {
  engine : Engine.t;
  extract : Reduction.Extract.t;
  onlines : (Reduction.Pair.t * Reduction.Lemmas.online) list;
}

(* Underlying ◇P modules (one heartbeat detector per process) feeding the
   WF-◇WX dining boxes; optional adversarial mistake windows per process. *)
let evp_suspects engine ~n ~windows =
  let fns = Array.make n (fun () -> Types.Pidset.empty) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, base = Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) () in
    Engine.register engine pid comp;
    let oracle =
      match List.assoc_opt pid windows with
      | None -> base
      | Some ws ->
          let icomp, wrapped = Detectors.Injected.wrap ctx ~base ~windows:ws in
          Engine.register engine pid icomp;
          wrapped
    in
    fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
  done;
  fun pid -> fns.(pid)

let wf_extraction ?(seed = 7L) ?(adversary = Adversary.partial_sync ~gst:500 ()) ?(windows = [])
    ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  let suspects = evp_suspects engine ~n ~windows in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  let extract =
    Reduction.Extract.create ~engine ~dining ~members:(List.init n Fun.id) ()
  in
  let onlines =
    List.map
      (fun pair -> (pair, Reduction.Lemmas.install_online ~engine ~pair))
      extract.Reduction.Extract.pairs
  in
  { engine; extract; onlines }

let ftme_extraction ?(seed = 9L) ?(adversary = Adversary.async_uniform ()) ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  let fns = Array.make n (fun () -> Types.Pidset.empty) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, oracle =
      Detectors.Ground_truth.trusting ctx ~detection_delay:25 ~peers:(List.init n Fun.id) ()
    in
    Engine.register engine pid comp;
    fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
  done;
  let dining = Reduction.Pair.ftme_factory ~suspects:(fun pid -> fns.(pid)) in
  let extract =
    Reduction.Extract.create ~engine ~dining ~members:(List.init n Fun.id) ()
  in
  { engine; extract; onlines = [] }

let extracted_flips engine ~owner ~target =
  Trace.suspicion_flips (Engine.trace engine) ~detector:"extracted" ~owner ~target

(* ------------------------------------------------------------------ *)
(* Theorem 2: eventual strong accuracy *)

let test_accuracy_pairwise () =
  let r = wf_extraction ~n:2 () in
  Engine.run r.engine ~until:20000;
  let pair = Reduction.Extract.pair r.extract ~watcher:0 ~subject:1 in
  check "eventually trusts correct subject" false (pair.Reduction.Pair.suspected ());
  let v =
    Detectors.Properties.eventual_strong_accuracy (Engine.trace r.engine) ~detector:"extracted"
      ~n:2 ~initially_suspected:true
  in
  check "eventual strong accuracy" true (holds v)

let test_accuracy_full_system () =
  let r = wf_extraction ~seed:11L ~n:3 () in
  Engine.run r.engine ~until:30000;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace r.engine) ~detector:"extracted" ~n:3
      ~initially_suspected:true
  in
  check "extracted detector is ◇P (all-correct run)" true (holds v)

let test_accuracy_mistakes_are_finite () =
  let r = wf_extraction ~seed:13L ~n:2 () in
  Engine.run r.engine ~until:15000;
  let flips_mid = extracted_flips r.engine ~owner:0 ~target:1 in
  Engine.run r.engine ~until:30000;
  let flips_end = extracted_flips r.engine ~owner:0 ~target:1 in
  check "no new suspicion flips in the stable suffix" true
    (List.length flips_mid = List.length flips_end)

(* ------------------------------------------------------------------ *)
(* Theorem 1: strong completeness *)

let test_completeness_crash_subject () =
  let r = wf_extraction ~seed:17L ~n:2 () in
  Engine.schedule_crash r.engine 1 ~at:4000;
  Engine.run r.engine ~until:25000;
  let pair = Reduction.Extract.pair r.extract ~watcher:0 ~subject:1 in
  check "permanently suspects crashed subject" true (pair.Reduction.Pair.suspected ());
  let v =
    Detectors.Properties.strong_completeness (Engine.trace r.engine) ~detector:"extracted" ~n:2
      ~initially_suspected:true
  in
  check "strong completeness" true (holds v)

let test_completeness_full_system () =
  let r = wf_extraction ~seed:19L ~n:3 () in
  Engine.schedule_crash r.engine 2 ~at:5000;
  Engine.run r.engine ~until:40000;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace r.engine) ~detector:"extracted" ~n:3
      ~initially_suspected:true
  in
  check "extracted detector is ◇P (one crash)" true (holds v)

let test_completeness_crash_before_start_of_monitoring () =
  (* Crash in the very first ticks: the witness must still converge to
     permanent suspicion (it starts suspecting and q never pings). *)
  let r = wf_extraction ~seed:23L ~n:2 () in
  Engine.schedule_crash r.engine 1 ~at:3;
  Engine.run r.engine ~until:10000;
  let pair = Reduction.Extract.pair r.extract ~watcher:0 ~subject:1 in
  check "suspects immediately-crashed subject" true (pair.Reduction.Pair.suspected ())

(* ------------------------------------------------------------------ *)
(* Lemmas: the proof obligations hold on every run *)

let assert_lemmas r =
  List.iter
    (fun (pair, online) ->
      let reports =
        Reduction.Lemmas.online_reports online
        @ Reduction.Lemmas.trace_reports ~engine:r.engine ~pair
      in
      List.iter
        (fun rep ->
          if not (Reduction.Lemmas.ok rep) then
            Alcotest.failf "pair %s lemma %s: %s" pair.Reduction.Pair.name
              rep.Reduction.Lemmas.lemma
              (String.concat "; " rep.Reduction.Lemmas.violations))
        reports)
    r.onlines

let test_lemmas_correct_run () =
  let r = wf_extraction ~seed:29L ~n:2 () in
  Engine.run r.engine ~until:20000;
  assert_lemmas r

let test_lemmas_with_crash () =
  let r = wf_extraction ~seed:31L ~n:2 () in
  Engine.schedule_crash r.engine 1 ~at:5000;
  Engine.run r.engine ~until:20000;
  assert_lemmas r

let test_lemmas_under_bursty_adversary () =
  let r = wf_extraction ~seed:37L ~adversary:(Adversary.bursty ~gst:1000 ()) ~n:2 () in
  Engine.run r.engine ~until:25000;
  assert_lemmas r

let test_lemmas_seed_sweep () =
  (* A small property sweep: the lemmas and ◇P properties hold across random
     seeds and crash times. *)
  List.iter
    (fun seed ->
      let r = wf_extraction ~seed:(Int64.of_int seed) ~n:2 () in
      let crash = seed mod 3 = 0 in
      if crash then Engine.schedule_crash r.engine 1 ~at:(2000 + (seed * 137 mod 4000));
      Engine.run r.engine ~until:22000;
      assert_lemmas r;
      let v =
        Detectors.Properties.eventually_perfect (Engine.trace r.engine) ~detector:"extracted"
          ~n:2 ~initially_suspected:true
      in
      if not (holds v) then Alcotest.failf "seed %d: extracted not ◇P" seed)
    [ 101; 102; 103; 104; 105; 106 ]

(* Lemma 3 fires: a Ping_i the subject never sent through S_p, injected
   while s_i is idle and ping_i is armed, is a ping in transit on an idle
   channel. The injecting hook is registered before the monitor, so the
   monitor's end-of-tick check sees the ping still in flight. *)
let stray_ping_run ~seed ~at =
  let n = 2 in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:500 ()) () in
  let suspects = evp_suspects engine ~n ~windows:[] in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  let pair = Reduction.Pair.create ~engine ~dining ~watcher:0 ~subject:1 () in
  let injected = ref None in
  let idle_and_armed i =
    (not
       (Types.phase_equal
          (pair.Reduction.Pair.s_handles.(i).Dining.Spec.phase ())
          Types.Eating))
    && pair.Reduction.Pair.subject_threads.Reduction.Subject.ping_flag i
  in
  Engine.on_tick engine (fun () ->
      if Option.is_none !injected && Engine.now engine >= at then
        match List.find_opt idle_and_armed [ 0; 1 ] with
        | Some i ->
            let ctx = Engine.ctx engine pair.Reduction.Pair.subject in
            ctx.Context.send ~dst:pair.Reduction.Pair.watcher ~tag:pair.Reduction.Pair.witness_tag
              (Reduction.Messages.Ping i);
            injected := Some (i, Engine.now engine)
        | None -> ());
  let online = Reduction.Lemmas.install_online ~engine ~pair in
  (engine, pair, online, injected)

let l3_report online =
  List.find
    (fun r -> String.equal r.Reduction.Lemmas.lemma "L3")
    (Reduction.Lemmas.online_reports online)

let test_lemma3_detects_stray_ping () =
  let engine, _, online, injected = stray_ping_run ~seed:29L ~at:5000 in
  Engine.run engine ~until:4999;
  check "L3 clean before the stray ping" true (Reduction.Lemmas.ok (l3_report online));
  Engine.run engine ~until:8000;
  match !injected with
  | None -> Alcotest.fail "no tick had an idle, armed subject thread"
  | Some (i, at) -> (
      let l3 = l3_report online in
      check "L3 reports the stray ping" false (Reduction.Lemmas.ok l3);
      let want = Printf.sprintf "t=%d: 1 ping(s), 0 ack(s) in transit on idle channel %d" at i in
      match l3.Reduction.Lemmas.violations with
      | first :: _ -> Alcotest.(check string) "first violation is the injection tick" want first
      | [] -> Alcotest.fail "no L3 violation")

(* ------------------------------------------------------------------ *)
(* Post-hoc Lemmas 5 and 12: one-pass sweeps against the filter-per-window
   reference in lemmas_reference.ml *)

let render (r : Reduction.Lemmas.report) =
  String.concat "\n"
    ((r.Reduction.Lemmas.lemma ^ " " ^ r.Reduction.Lemmas.info) :: r.Reduction.Lemmas.violations)

let l5_l12 ~engine ~pair =
  List.filter
    (fun r -> List.mem r.Reduction.Lemmas.lemma [ "L5"; "L12" ])
    (Reduction.Lemmas.trace_reports ~engine ~pair)

let same_l5_l12 label ~engine ~pair =
  Alcotest.(check (list string))
    label
    (List.map render (Lemmas_reference.l5_l12 ~engine ~pair))
    (List.map render (l5_l12 ~engine ~pair))

let test_sweeps_match_reference_runs () =
  List.iter
    (fun (seed, n, horizon, crash) ->
      let r = wf_extraction ~seed ~n () in
      Option.iter (fun (pid, at) -> Engine.schedule_crash r.engine pid ~at) crash;
      Engine.run r.engine ~until:horizon;
      List.iter
        (fun (pair, _) ->
          same_l5_l12
            (Printf.sprintf "seed %Ld n=%d horizon %d pair %s" seed n horizon
               pair.Reduction.Pair.name)
            ~engine:r.engine ~pair)
        r.onlines)
    [
      (7L, 3, 5000, None);
      (7L, 3, 20000, None);
      (29L, 2, 40000, None);
      (103L, 2, 12000, None);
      (19L, 3, 20000, Some (2, 5000));
    ];
  (* A run the stray ping knocks off the one-ping-one-ack pattern. *)
  let engine, pair, _, _ = stray_ping_run ~seed:29L ~at:5000 in
  Engine.run engine ~until:20000;
  same_l5_l12 "stray-ping run" ~engine ~pair

(* Random traces dense in violations and in ties: transitions and notes
   land on the same tick, on session boundaries and on each other, which
   real runs rarely do. The pair only supplies names; the trace and clock
   are a bare engine's. *)
let test_sweeps_match_reference_random () =
  let names_engine = Engine.create ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let pair =
    Reduction.Pair.create ~engine:names_engine
      ~dining:(Reduction.Pair.ftme_factory ~suspects:(fun _ () -> Types.Pidset.empty))
      ~watcher:0 ~subject:1 ()
  in
  let violations = ref 0 in
  for case = 0 to 39 do
    let rng = Prng.create (Int64.of_int (4100 + case)) in
    let horizon = Prng.int_in rng ~lo:1500 ~hi:8000 in
    let engine = Engine.create ~n:2 ~adversary:(Adversary.synchronous ()) () in
    Engine.run engine ~until:horizon;
    let events = ref [] in
    let add at ev = events := (at, ev) :: !events in
    let gaps = [| 0; 0; 1; 1; 2; 3; 7; 20; 60 |] in
    let cycle = [| Types.Thinking; Types.Hungry; Types.Eating; Types.Exiting |] in
    let note pid label i at =
      add at
        (Trace.Note
           { pid; label; info = Printf.sprintf "%s:%d" pair.Reduction.Pair.subject_tag i })
    in
    let diner pid i =
      let at = ref (Prng.int rng ~bound:30) and k = ref 0 in
      while !at < horizon - 1 do
        let from_ = cycle.(!k mod 4) and to_ = cycle.((!k + 1) mod 4) in
        add !at
          (Trace.Transition { instance = pair.Reduction.Pair.dx_instances.(i); pid; from_; to_ });
        if pid = pair.Reduction.Pair.subject then begin
          if Types.phase_equal to_ Types.Eating && Prng.bool rng then note pid "red-ping" i !at;
          if Types.phase_equal from_ Types.Eating && Prng.bool rng then note pid "red-ack" i !at
        end;
        incr k;
        at := !at + Prng.pick rng gaps
      done
    in
    List.iter
      (fun pid ->
        diner pid 0;
        diner pid 1)
      [ pair.Reduction.Pair.subject; pair.Reduction.Pair.watcher ];
    for at = 0 to horizon - 1 do
      List.iter
        (fun (label, i) ->
          if Prng.chance rng ~p:0.02 then note pair.Reduction.Pair.subject label i at)
        [ ("red-ping", 0); ("red-ping", 1); ("red-ack", 0); ("red-ack", 1) ]
    done;
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events)
    |> List.iter (fun (at, ev) -> Trace.append (Engine.trace engine) ~at ev);
    same_l5_l12 (Printf.sprintf "random trace %d" case) ~engine ~pair;
    List.iter
      (fun r -> violations := !violations + List.length r.Reduction.Lemmas.violations)
      (l5_l12 ~engine ~pair)
  done;
  check "random traces violate L5/L12" true (!violations > 100)

(* ------------------------------------------------------------------ *)
(* Robustness of the reduction to early oracle mistakes in the black box *)

let test_reduction_tolerates_underlying_mistakes () =
  (* Both dining-layer ◇P modules wrongfully suspect the peer during an
     early window; the extraction must still converge to ◇P. *)
  let windows =
    [
      (0, [ { Detectors.Injected.from_ = 100; until = 600; target = 1 } ]);
      (1, [ { Detectors.Injected.from_ = 300; until = 800; target = 0 } ]);
    ]
  in
  let r = wf_extraction ~seed:41L ~windows ~n:2 () in
  Engine.run r.engine ~until:25000;
  assert_lemmas r;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace r.engine) ~detector:"extracted" ~n:2
      ~initially_suspected:true
  in
  check "◇P despite injected prefix mistakes" true (holds v)

(* ------------------------------------------------------------------ *)
(* Section 3: the [8] construction is not black-box; ours is *)

(* The vulnerability scenario: subject q = 0 (holds the request token),
   watcher p = 1 (holds the fork). q's dining-layer oracle wrongfully
   suspects p early; q enters its critical section on a "virtual fork"
   during the noisy prefix and — being the [8] construction's subject —
   never exits. The exclusive suffix never materialises: p eats (with the
   real fork) and suspects the correct q infinitely often. *)
let flawed_run ~horizon ~seed =
  let n = 2 in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:500 ()) () in
  let windows = [ (0, [ { Detectors.Injected.from_ = 0; until = 300; target = 1 } ]) ] in
  let suspects = evp_suspects engine ~n ~windows in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  let cm = Reduction.Flawed_cm.create ~engine ~dining ~watcher:1 ~subject:0 () in
  Engine.run engine ~until:horizon;
  (engine, cm)

let test_flawed_cm_violates_accuracy () =
  let engine1, cm1 = flawed_run ~horizon:10000 ~seed:43L in
  let engine2, cm2 = flawed_run ~horizon:30000 ~seed:43L in
  ignore cm1;
  ignore cm2;
  let flips e =
    List.length (Trace.suspicion_flips (Engine.trace e) ~detector:"flawed-cm" ~owner:1 ~target:0)
  in
  let f1 = flips engine1 and f2 = flips engine2 in
  (* p suspects the correct q over and over, growing with the horizon:
     eventual strong accuracy is violated. *)
  check "many false suspicions" true (f1 > 20);
  check "suspicions keep growing with horizon" true (f2 > f1 + 20)

let test_flawed_cm_subject_is_correct_and_eating () =
  let engine, cm = flawed_run ~horizon:10000 ~seed:43L in
  check "subject is live" true (Engine.is_live engine 0);
  check "subject is (still) eating" true
    (Types.phase_equal (cm.Reduction.Flawed_cm.s_handle.Dining.Spec.phase ()) Types.Eating);
  (* ... and the watcher also eats: the box's exclusive suffix is void. *)
  check "watcher keeps eating" true
    (Dining.Monitor.eat_count (Engine.trace engine) ~instance:cm.Reduction.Flawed_cm.cm_instance
       ~pid:1
    > 20)

let test_our_reduction_closes_the_hole () =
  (* Same black box, same injected prefix mistake, same (p, q) orientation —
     but the two-instance hand-off reduction converges. *)
  let n = 2 in
  let engine = Engine.create ~seed:43L ~n ~adversary:(Adversary.partial_sync ~gst:500 ()) () in
  let windows = [ (0, [ { Detectors.Injected.from_ = 0; until = 300; target = 1 } ]) ] in
  let suspects = evp_suspects engine ~n ~windows in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  let pair = Reduction.Pair.create ~engine ~dining ~watcher:1 ~subject:0 () in
  Engine.run engine ~until:10000;
  let f1 = List.length (extracted_flips engine ~owner:1 ~target:0) in
  Engine.run engine ~until:30000;
  let f2 = List.length (extracted_flips engine ~owner:1 ~target:0) in
  check "finitely many mistakes (no growth)" true (f1 = f2);
  check "converged to trust" false (pair.Reduction.Pair.suspected ())

(* ------------------------------------------------------------------ *)
(* Section 9: the same reduction over perpetual WX extracts T *)

let test_t_extraction_trusting_accuracy () =
  let r = ftme_extraction ~n:2 () in
  Engine.run r.engine ~until:25000;
  let v =
    Detectors.Properties.trusting_accuracy (Engine.trace r.engine) ~detector:"extracted" ~n:2
      ~initially_suspected:true
  in
  check "trusting accuracy over perpetual-WX box" true (holds v)

let test_t_extraction_completeness () =
  let r = ftme_extraction ~seed:47L ~n:2 () in
  Engine.schedule_crash r.engine 1 ~at:6000;
  Engine.run r.engine ~until:30000;
  let pair = Reduction.Extract.pair r.extract ~watcher:0 ~subject:1 in
  check "suspects crashed subject" true (pair.Reduction.Pair.suspected ());
  let v =
    Detectors.Properties.strong_completeness (Engine.trace r.engine) ~detector:"extracted" ~n:2
      ~initially_suspected:true
  in
  check "strong completeness" true (holds v)

let test_t_extraction_seed_sweep () =
  List.iter
    (fun seed ->
      let r = ftme_extraction ~seed:(Int64.of_int seed) ~n:2 () in
      if seed mod 2 = 0 then Engine.schedule_crash r.engine 1 ~at:(3000 + (seed * 531 mod 3000));
      Engine.run r.engine ~until:25000;
      let tr = Engine.trace r.engine in
      let ta =
        Detectors.Properties.trusting_accuracy tr ~detector:"extracted" ~n:2
          ~initially_suspected:true
      in
      let sc =
        Detectors.Properties.strong_completeness tr ~detector:"extracted" ~n:2
          ~initially_suspected:true
      in
      if not (holds ta && holds sc) then Alcotest.failf "seed %d: T properties violated" seed)
    [ 201; 202; 203; 204 ]

(* ------------------------------------------------------------------ *)
(* Soak and storm tests *)

let test_soak_long_horizon () =
  (* 100k ticks: the lemmas stay invariant, the trace machinery keeps up,
     and the extracted detector's flip count stays frozen after the
     prefix. *)
  let r = wf_extraction ~seed:1001L ~n:2 () in
  Engine.run r.engine ~until:25000;
  let flips_mid = List.length (extracted_flips r.engine ~owner:0 ~target:1) in
  Engine.run r.engine ~until:100000;
  let flips_end = List.length (extracted_flips r.engine ~owner:0 ~target:1) in
  check "no flips in 75k ticks of stable suffix" true (flips_mid = flips_end);
  assert_lemmas r

let test_crash_storm () =
  (* All processes but the watcher die, in quick succession. *)
  let n = 4 in
  let r = wf_extraction ~seed:1002L ~n () in
  Engine.schedule_crash r.engine 1 ~at:2000;
  Engine.schedule_crash r.engine 2 ~at:2100;
  Engine.schedule_crash r.engine 3 ~at:2200;
  Engine.run r.engine ~until:25000;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace r.engine) ~detector:"extracted" ~n
      ~initially_suspected:true
  in
  check "sole survivor suspects everyone" true (holds v)

let test_watcher_crash_does_not_poison_others () =
  (* Section 8: if the watcher dies, its subject may eat forever in their
     shared instances — the spec precondition is void there, but all other
     pairs must still converge. *)
  let n = 3 in
  let r = wf_extraction ~seed:1003L ~n () in
  Engine.schedule_crash r.engine 0 ~at:2000;
  Engine.run r.engine ~until:30000;
  let trace = Engine.trace r.engine in
  (* pairs among survivors 1 and 2 are fine in both directions *)
  List.iter
    (fun (owner, target) ->
      let pair = Reduction.Extract.pair r.extract ~watcher:owner ~subject:target in
      if pair.Reduction.Pair.suspected () then
        Alcotest.failf "p%d wrongly suspects live p%d after watcher crash" owner target)
    [ (1, 2); (2, 1) ];
  let sc =
    Detectors.Properties.strong_completeness trace ~detector:"extracted" ~n
      ~initially_suspected:true
  in
  check "survivors suspect the crashed watcher" true (holds sc)

let test_simultaneous_crash_and_mistake () =
  (* A crash in the middle of an injected mistake window about the same
     process: completeness must still win. *)
  let windows = [ (0, [ { Detectors.Injected.from_ = 1800; until = 2600; target = 1 } ]) ] in
  let r = wf_extraction ~seed:1004L ~windows ~n:2 () in
  Engine.schedule_crash r.engine 1 ~at:2200;
  Engine.run r.engine ~until:20000;
  let pair = Reduction.Extract.pair r.extract ~watcher:0 ~subject:1 in
  check "permanent suspicion" true (pair.Reduction.Pair.suspected ())

let () =
  Alcotest.run "reduction"
    [
      ( "theorem-2 accuracy",
        [
          Alcotest.test_case "pairwise" `Quick test_accuracy_pairwise;
          Alcotest.test_case "full system n=3" `Quick test_accuracy_full_system;
          Alcotest.test_case "mistakes are finite" `Quick test_accuracy_mistakes_are_finite;
        ] );
      ( "theorem-1 completeness",
        [
          Alcotest.test_case "crash subject" `Quick test_completeness_crash_subject;
          Alcotest.test_case "full system n=3" `Quick test_completeness_full_system;
          Alcotest.test_case "crash at start" `Quick
            test_completeness_crash_before_start_of_monitoring;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "correct run" `Quick test_lemmas_correct_run;
          Alcotest.test_case "with crash" `Quick test_lemmas_with_crash;
          Alcotest.test_case "bursty adversary" `Quick test_lemmas_under_bursty_adversary;
          Alcotest.test_case "seed sweep" `Slow test_lemmas_seed_sweep;
          Alcotest.test_case "L3 reports a stray ping" `Quick test_lemma3_detects_stray_ping;
          Alcotest.test_case "L5/L12 sweeps match reference on runs" `Quick
            test_sweeps_match_reference_runs;
          Alcotest.test_case "L5/L12 sweeps match reference on random traces" `Quick
            test_sweeps_match_reference_random;
        ] );
      ( "black-box robustness",
        [
          Alcotest.test_case "tolerates underlying mistakes" `Quick
            test_reduction_tolerates_underlying_mistakes;
        ] );
      ( "section-3 vulnerability",
        [
          Alcotest.test_case "[8] violates accuracy" `Quick test_flawed_cm_violates_accuracy;
          Alcotest.test_case "subject correct, box spec void" `Quick
            test_flawed_cm_subject_is_correct_and_eating;
          Alcotest.test_case "our reduction closes the hole" `Quick
            test_our_reduction_closes_the_hole;
        ] );
      ( "soak-and-storm",
        [
          Alcotest.test_case "100k-tick soak" `Slow test_soak_long_horizon;
          Alcotest.test_case "crash storm (n-1 of n)" `Quick test_crash_storm;
          Alcotest.test_case "watcher crash does not poison others" `Quick
            test_watcher_crash_does_not_poison_others;
          Alcotest.test_case "crash inside mistake window" `Quick
            test_simultaneous_crash_and_mistake;
        ] );
      ( "section-9 trusting extraction",
        [
          Alcotest.test_case "trusting accuracy" `Quick test_t_extraction_trusting_accuracy;
          Alcotest.test_case "completeness" `Quick test_t_extraction_completeness;
          Alcotest.test_case "seed sweep" `Slow test_t_extraction_seed_sweep;
        ] );
    ]
