(* Tests for the failure-detector implementations and property checkers. *)

open Dsim

let check = Alcotest.(check bool)

let holds (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

let setup_heartbeat ?(seed = 4L) ?(adversary = Adversary.partial_sync ~gst:300 ()) ?config ~n ()
    =
  let engine = Engine.create ~seed ~n ~adversary () in
  let oracles =
    Array.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, oracle =
          Detectors.Heartbeat.component ctx ?config ~peers:(List.init n Fun.id) ()
        in
        Engine.register engine pid comp;
        oracle)
  in
  (engine, oracles)

let test_heartbeat_completeness () =
  let engine, oracles = setup_heartbeat ~n:3 () in
  Engine.schedule_crash engine 2 ~at:600;
  Engine.run engine ~until:3000;
  check "p0 suspects crashed p2" true (oracles.(0).Detectors.Oracle.suspected 2);
  check "p1 suspects crashed p2" true (oracles.(1).Detectors.Oracle.suspected 2);
  let v =
    Detectors.Properties.strong_completeness (Engine.trace engine) ~detector:"evp" ~n:3
      ~initially_suspected:false
  in
  check "strong completeness verdict" true (holds v)

let test_heartbeat_accuracy_converges () =
  let engine, oracles = setup_heartbeat ~n:3 () in
  Engine.run engine ~until:4000;
  Array.iteri
    (fun i o ->
      for j = 0 to 2 do
        if i <> j then
          check
            (Printf.sprintf "p%d trusts p%d at horizon" i j)
            false
            (o.Detectors.Oracle.suspected j)
      done)
    oracles;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace engine) ~detector:"evp" ~n:3
      ~initially_suspected:false
  in
  check "eventually perfect verdict" true (holds v)

let test_heartbeat_converges_under_bursty () =
  let engine, _ =
    setup_heartbeat ~adversary:(Adversary.bursty ~gst:800 ()) ~n:4 ~seed:17L ()
  in
  Engine.schedule_crash engine 3 ~at:400;
  Engine.run engine ~until:8000;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace engine) ~detector:"evp" ~n:4
      ~initially_suspected:false
  in
  check "eventually perfect despite bursts" true (holds v)

let test_heartbeat_nonadaptive_fails_accuracy () =
  (* Ablation: a fixed timeout below the heartbeat period can never satisfy
     eventual strong accuracy — the oracle keeps erring forever. *)
  let config = { Detectors.Heartbeat.period = 8; initial_timeout = 2; adaptive = false } in
  let engine, _ = setup_heartbeat ~config ~n:2 () in
  Engine.run engine ~until:4000;
  let mistakes =
    Detectors.Properties.total_false_suspicions (Engine.trace engine) ~detector:"evp" ~n:2
  in
  check "mistakes keep accumulating" true (mistakes > 50)

let test_heartbeat_mistakes_are_finite_when_adaptive () =
  let engine, _ = setup_heartbeat ~adversary:(Adversary.bursty ~gst:600 ()) ~n:2 ~seed:9L () in
  Engine.run engine ~until:3000;
  let t1 =
    Detectors.Properties.total_false_suspicions (Engine.trace engine) ~detector:"evp" ~n:2
  in
  Engine.run engine ~until:12000;
  let t2 =
    Detectors.Properties.total_false_suspicions (Engine.trace engine) ~detector:"evp" ~n:2
  in
  check "no new mistakes after convergence" true (t2 = t1)

let test_perfect_detector () =
  let engine = Engine.create ~seed:5L ~n:3 ~adversary:(Adversary.async_uniform ()) () in
  let oracles =
    Array.init 3 (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, o = Detectors.Ground_truth.perfect ctx ~peers:[ 0; 1; 2 ] () in
        Engine.register engine pid comp;
        o)
  in
  Engine.schedule_crash engine 1 ~at:100;
  Engine.run engine ~until:500;
  check "suspects crashed" true (oracles.(0).Detectors.Oracle.suspected 1);
  check "never suspects live" false (oracles.(0).Detectors.Oracle.suspected 2);
  let tr = Engine.trace engine in
  check "zero false suspicions" true
    (Detectors.Properties.total_false_suspicions tr ~detector:"perfect" ~n:3 = 0)

let test_trusting_detector_properties () =
  let engine = Engine.create ~seed:5L ~n:3 ~adversary:(Adversary.async_uniform ()) () in
  let oracles =
    Array.init 3 (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, o =
          Detectors.Ground_truth.trusting ctx ~detection_delay:30 ~peers:[ 0; 1; 2 ] ()
        in
        Engine.register engine pid comp;
        o)
  in
  Engine.schedule_crash engine 2 ~at:100;
  Engine.run engine ~until:120;
  check "not yet suspected (delay)" false (oracles.(0).Detectors.Oracle.suspected 2);
  Engine.run engine ~until:1000;
  check "eventually suspected" true (oracles.(0).Detectors.Oracle.suspected 2);
  let tr = Engine.trace engine in
  let v =
    Detectors.Properties.trusting_accuracy tr ~detector:"trusting" ~n:3
      ~initially_suspected:false
  in
  check "trusting accuracy" true (holds v);
  let c =
    Detectors.Properties.strong_completeness tr ~detector:"trusting" ~n:3
      ~initially_suspected:false
  in
  check "strong completeness" true (holds c)

let test_strong_detector () =
  let engine = Engine.create ~seed:5L ~n:4 ~adversary:(Adversary.async_uniform ()) () in
  let oracles =
    Array.init 4 (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, o = Detectors.Ground_truth.strong ctx ~peers:[ 0; 1; 2; 3 ] () in
        Engine.register engine pid comp;
        o)
  in
  Engine.schedule_crash engine 2 ~at:100;
  Engine.run engine ~until:800;
  check "suspects crashed" true (oracles.(1).Detectors.Oracle.suspected 2);
  check "anchor never suspected" false (oracles.(1).Detectors.Oracle.suspected 0);
  let tr = Engine.trace engine in
  let v = Detectors.Properties.perpetual_weak_accuracy tr ~detector:"strong" ~n:4 in
  check "perpetual weak accuracy" true v.Detectors.Properties.holds;
  let c =
    Detectors.Properties.strong_completeness tr ~detector:"strong" ~n:4
      ~initially_suspected:false
  in
  check "strong completeness" true c.Detectors.Properties.holds

let test_perpetual_weak_accuracy_violation_detected () =
  let tr = Trace.create () in
  (* every correct process gets suspected at least once *)
  Trace.append tr ~at:1 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:2 (Trace.Suspect { detector = "d"; owner = 1; target = 0 });
  let v = Detectors.Properties.perpetual_weak_accuracy tr ~detector:"d" ~n:2 in
  check "violation caught" false v.Detectors.Properties.holds

(* Random traces of two detectors, each owner's flips on each target
   out of order with the others, crashes (some repeated) and pids
   outside [0, n) as owners, targets and crashed processes: every
   checker reads one grouping of the flips, and must give the verdicts,
   details in order, and times of the per-pair filters of
   properties_reference.ml. *)
let test_properties_match_reference () =
  let module P = Detectors.Properties in
  let module R = Properties_reference in
  let violations = ref 0 in
  for case = 0 to 59 do
    let rng = Prng.create (Int64.of_int (7300 + case)) in
    let n = Prng.int_in rng ~lo:2 ~hi:5 in
    let tr = Trace.create () in
    (* Mostly in-range pids, with [-1] and [n] now and then. *)
    let pid () =
      if Prng.chance rng ~p:0.1 then Prng.pick rng [| -1; n |] else Prng.int rng ~bound:n
    in
    for at = 0 to Prng.int_in rng ~lo:20 ~hi:400 do
      if Prng.chance rng ~p:0.6 then begin
        let detector = if Prng.bool rng then "d" else "e" and owner = pid () and target = pid () in
        Trace.append tr ~at
          (if Prng.bool rng then Trace.Suspect { detector; owner; target }
           else Trace.Trust { detector; owner; target })
      end;
      if Prng.chance rng ~p:0.01 then Trace.append tr ~at (Trace.Crash { pid = pid () });
      if Prng.chance rng ~p:0.05 then
        Trace.append tr ~at (Trace.Note { pid = pid (); label = "l"; info = "x" })
    done;
    let label name = Printf.sprintf "case %d (n=%d) %s" case n name in
    let same name (want : R.verdict) (got : P.verdict) =
      if not got.P.holds then incr violations;
      Alcotest.(check (pair bool (list string)))
        (label name) (want.R.holds, want.R.details) (got.P.holds, got.P.details)
    in
    List.iter
      (fun detector ->
        let grouped = P.flips tr ~detector ~n in
        for owner = 0 to n - 1 do
          for target = 0 to n - 1 do
            Alcotest.(check (list (pair int bool)))
              (label (Printf.sprintf "%s flips p%d about p%d" detector owner target))
              (Trace_reference.suspicion_flips tr ~detector ~owner ~target)
              (P.pair_flips grouped ~owner ~target)
          done
        done;
        List.iter
          (fun initially_suspected ->
            let name check =
              Printf.sprintf "%s %s initially %b" detector check initially_suspected
            in
            same (name "completeness")
              (R.strong_completeness tr ~detector ~n ~initially_suspected)
              (P.strong_completeness tr ~detector ~n ~initially_suspected);
            same (name "accuracy")
              (R.eventual_strong_accuracy tr ~detector ~n ~initially_suspected)
              (P.eventual_strong_accuracy tr ~detector ~n ~initially_suspected);
            same (name "◇P")
              (R.eventually_perfect tr ~detector ~n ~initially_suspected)
              (P.eventually_perfect tr ~detector ~n ~initially_suspected);
            same (name "trusting accuracy")
              (R.trusting_accuracy tr ~detector ~n ~initially_suspected)
              (P.trusting_accuracy tr ~detector ~n ~initially_suspected))
          [ true; false ];
        same (detector ^ " weak accuracy")
          (R.perpetual_weak_accuracy tr ~detector ~n)
          (P.perpetual_weak_accuracy tr ~detector ~n);
        Alcotest.(check int)
          (label (detector ^ " convergence time"))
          (R.accuracy_convergence_time tr ~detector ~n)
          (P.accuracy_convergence_time tr ~detector ~n);
        Alcotest.(check int)
          (label (detector ^ " false suspicions"))
          (R.total_false_suspicions tr ~detector ~n)
          (P.total_false_suspicions tr ~detector ~n))
      [ "d"; "e" ]
  done;
  check "random traces violate the checkers" true (!violations > 300)

(* ------------------------------------------------------------------ *)
(* Ping-pong ◇P and differential testing against heartbeat *)

let setup_pingpong ?(seed = 4L) ?(adversary = Adversary.partial_sync ~gst:300 ()) ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  let oracles =
    Array.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, oracle = Detectors.Pingpong.component ctx ~peers:(List.init n Fun.id) () in
        Engine.register engine pid comp;
        oracle)
  in
  (engine, oracles)

let test_pingpong_is_evp () =
  let engine, _ = setup_pingpong ~n:3 () in
  Engine.schedule_crash engine 2 ~at:600;
  Engine.run engine ~until:5000;
  let v =
    Detectors.Properties.eventually_perfect (Engine.trace engine) ~detector:"evp-pp" ~n:3
      ~initially_suspected:false
  in
  check "ping-pong detector is eventually perfect" true (holds v)

let test_pingpong_converges_under_bursty () =
  let engine, _ =
    setup_pingpong ~seed:21L ~adversary:(Adversary.bursty ~gst:800 ()) ~n:3 ()
  in
  Engine.run engine ~until:10000;
  let v =
    Detectors.Properties.eventual_strong_accuracy (Engine.trace engine) ~detector:"evp-pp"
      ~n:3 ~initially_suspected:false
  in
  check "accuracy despite bursts" true (holds v)

let test_differential_heartbeat_vs_pingpong () =
  (* Both implementations deployed side by side in one run: after the
     stabilisation prefix their suspicion sets must be identical. *)
  let n = 3 in
  let engine = Engine.create ~seed:22L ~n ~adversary:(Adversary.partial_sync ~gst:400 ()) () in
  let pairs =
    Array.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let hb_comp, hb = Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) () in
        Engine.register engine pid hb_comp;
        let pp_comp, pp = Detectors.Pingpong.component ctx ~peers:(List.init n Fun.id) () in
        Engine.register engine pid pp_comp;
        (hb, pp))
  in
  Engine.schedule_crash engine 2 ~at:1500;
  Engine.run engine ~until:10000;
  Array.iteri
    (fun pid (hb, pp) ->
      if Engine.is_live engine pid then
        check
          (Printf.sprintf "p%d: both modules agree at the horizon" pid)
          true
          (Types.Pidset.equal
             (hb.Detectors.Oracle.suspects ())
             (pp.Detectors.Oracle.suspects ())))
    pairs

let test_reduction_over_pingpong_box () =
  (* Black-box check: the same extraction works when the dining layer's
     oracle is the ping-pong ◇P instead of the heartbeat one. *)
  let n = 2 in
  let engine = Engine.create ~seed:23L ~n ~adversary:(Adversary.partial_sync ~gst:400 ()) () in
  let fns =
    Array.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, oracle = Detectors.Pingpong.component ctx ~peers:(List.init n Fun.id) () in
        Engine.register engine pid comp;
        fun () -> oracle.Detectors.Oracle.suspects ())
  in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects:(fun pid -> fns.(pid)) in
  let extract = Reduction.Extract.create ~engine ~dining ~members:[ 0; 1 ] () in
  Engine.run engine ~until:20000;
  let pair = Reduction.Extract.pair extract ~watcher:0 ~subject:1 in
  check "converges to trust" false (pair.Reduction.Pair.suspected ());
  let v =
    Detectors.Properties.eventual_strong_accuracy (Engine.trace engine) ~detector:"extracted"
      ~n:2 ~initially_suspected:true
  in
  check "extraction is oracle-agnostic" true (holds v)

let test_injected_mistakes () =
  let engine = Engine.create ~seed:6L ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let ctx = Engine.ctx engine 0 in
  let comp, base = Detectors.Heartbeat.component ctx ~peers:[ 0; 1 ] () in
  Engine.register engine 0 comp;
  let icomp, wrapped =
    Detectors.Injected.wrap ctx ~base
      ~windows:[ { Detectors.Injected.from_ = 50; until = 100; target = 1 } ]
  in
  Engine.register engine 0 icomp;
  (* Register the peer's heartbeat sender so the base oracle stays quiet. *)
  let ctx1 = Engine.ctx engine 1 in
  let comp1, _ = Detectors.Heartbeat.component ctx1 ~peers:[ 0; 1 ] () in
  Engine.register engine 1 comp1;
  Engine.run engine ~until:40;
  check "before window: trusted" false (wrapped.Detectors.Oracle.suspected 1);
  Engine.run engine ~until:75;
  check "inside window: suspected" true (wrapped.Detectors.Oracle.suspected 1);
  Engine.run engine ~until:200;
  check "after window: trusted again" false (wrapped.Detectors.Oracle.suspected 1);
  (* The wrapper logged the injected flip under its own detector name. *)
  let flips =
    Trace.suspicion_flips (Engine.trace engine) ~detector:"evp+inj" ~owner:0 ~target:1
  in
  check "wrapper logged flips" true (List.length flips >= 2)

let test_properties_trusting_violation_detected () =
  (* Hand-craft a trace where trust in a live process is revoked. *)
  let tr = Trace.create () in
  Trace.append tr ~at:10 (Trace.Trust { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:20 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:30 (Trace.Trust { detector = "d"; owner = 0; target = 1 });
  let v =
    Detectors.Properties.trusting_accuracy tr ~detector:"d" ~n:2 ~initially_suspected:true
  in
  check "violation caught" false (holds v)

let test_properties_completeness_violation_detected () =
  let tr = Trace.create () in
  Trace.append tr ~at:5 (Trace.Crash { pid = 1 });
  (* p0 never suspects p1. *)
  let v =
    Detectors.Properties.strong_completeness tr ~detector:"d" ~n:2 ~initially_suspected:false
  in
  check "violation caught" false (holds v)

let test_properties_detection_time () =
  let tr = Trace.create () in
  Trace.append tr ~at:5 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:8 (Trace.Trust { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:33 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  Alcotest.(check (option int))
    "last onset" (Some 33)
    (Detectors.Properties.detection_time tr ~detector:"d" ~owner:0 ~target:1
       ~initially_suspected:false);
  let tr2 = Trace.create () in
  Alcotest.(check (option int))
    "initially suspected, never flipped" (Some 0)
    (Detectors.Properties.detection_time tr2 ~detector:"d" ~owner:0 ~target:1
       ~initially_suspected:true)

let () =
  Alcotest.run "detectors"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "strong completeness" `Quick test_heartbeat_completeness;
          Alcotest.test_case "accuracy converges" `Quick test_heartbeat_accuracy_converges;
          Alcotest.test_case "converges under bursty adversary" `Quick
            test_heartbeat_converges_under_bursty;
          Alcotest.test_case "non-adaptive fails accuracy (ablation)" `Quick
            test_heartbeat_nonadaptive_fails_accuracy;
          Alcotest.test_case "adaptive mistakes are finite" `Quick
            test_heartbeat_mistakes_are_finite_when_adaptive;
        ] );
      ( "ground-truth oracles",
        [
          Alcotest.test_case "perfect detector" `Quick test_perfect_detector;
          Alcotest.test_case "trusting detector" `Quick test_trusting_detector_properties;
          Alcotest.test_case "strong detector" `Quick test_strong_detector;
        ] );
      ("injection", [ Alcotest.test_case "mistake windows" `Quick test_injected_mistakes ]);
      ( "ping-pong",
        [
          Alcotest.test_case "is eventually perfect" `Quick test_pingpong_is_evp;
          Alcotest.test_case "converges under bursty" `Quick
            test_pingpong_converges_under_bursty;
          Alcotest.test_case "differential vs heartbeat" `Quick
            test_differential_heartbeat_vs_pingpong;
          Alcotest.test_case "reduction over ping-pong box" `Quick
            test_reduction_over_pingpong_box;
        ] );
      ( "property checkers",
        [
          Alcotest.test_case "trusting violation detected" `Quick
            test_properties_trusting_violation_detected;
          Alcotest.test_case "completeness violation detected" `Quick
            test_properties_completeness_violation_detected;
          Alcotest.test_case "detection time" `Quick test_properties_detection_time;
          Alcotest.test_case "perpetual weak accuracy violation" `Quick
            test_perpetual_weak_accuracy_violation_detected;
          Alcotest.test_case "checkers match the per-pair reference on random traces" `Quick
            test_properties_match_reference;
        ] );
    ]
