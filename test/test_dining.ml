(* Tests for the dining algorithms: hygienic baseline and WF-◇WX. *)

open Dsim
module Ix = Dining.Monitor.Index

let check = Alcotest.(check bool)
let holds (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

(* ------------------------------------------------------------------ *)
(* Hygienic baseline *)

let hygienic_run ?(seed = 3L) ?(horizon = 3000) ~graph () =
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.async_uniform ()) () in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"hyg" ~graph () in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.run engine ~until:horizon;
  engine

let test_hygienic_perpetual_exclusion () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine = hygienic_run ~graph () in
  let v =
    Ix.perpetual_weak_exclusion (Ix.build (Engine.trace engine) ~instance:"hyg") ~graph
      ~horizon:(Engine.now engine)
  in
  check "no violation ever" true (holds v)

let test_hygienic_everyone_eats () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine = hygienic_run ~graph () in
  for pid = 0 to 4 do
    let c = Dining.Monitor.eat_count (Engine.trace engine) ~instance:"hyg" ~pid in
    check (Printf.sprintf "p%d ate many times" pid) true (c > 10)
  done;
  let v =
    Dining.Monitor.wait_freedom (Engine.trace engine) ~instance:"hyg" ~n:5
      ~horizon:(Engine.now engine) ~slack:500
  in
  check "no starvation" true (holds v)

let test_hygienic_starves_after_crash () =
  (* The crash-intolerance baseline: crash a fork holder mid-protocol and a
     hungry neighbor waits forever. *)
  let graph = Graphs.Conflict_graph.pair () in
  let engine = Engine.create ~seed:11L ~n:2 ~adversary:(Adversary.async_uniform ()) () in
  for pid = 0 to 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"hyg" ~graph () in
    Engine.register engine pid comp;
    if pid = 1 then
      (* p1 grabs the critical section and crashes while eating. *)
      Engine.register engine pid (Dining.Clients.glutton ctx ~handle ())
    else Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.schedule_crash engine 1 ~at:200;
  Engine.run engine ~until:5000;
  let v =
    Dining.Monitor.wait_freedom (Engine.trace engine) ~instance:"hyg" ~n:2 ~horizon:5000
      ~slack:1000
  in
  check "hygienic starves p0" false (holds v)

(* ------------------------------------------------------------------ *)
(* WF-◇WX *)

let test_wf_ewx_wait_freedom_with_crashes () =
  let graph = Graphs.Conflict_graph.ring ~n:6 in
  let run = Scen.wf_dining ~seed:21L ~graph () in
  Engine.schedule_crash run.Scen.engine 2 ~at:700;
  Engine.schedule_crash run.Scen.engine 5 ~at:1500;
  Engine.run run.Scen.engine ~until:12000;
  let tr = Engine.trace run.Scen.engine in
  let v = Dining.Monitor.wait_freedom tr ~instance:"dx" ~n:6 ~horizon:12000 ~slack:3000 in
  check "correct diners never starve" true (holds v);
  for pid = 0 to 5 do
    if pid <> 2 && pid <> 5 then begin
      let c = Dining.Monitor.eat_count tr ~instance:"dx" ~pid in
      check (Printf.sprintf "p%d keeps eating after crashes" pid) true (c > 20)
    end
  done

let test_wf_ewx_eventual_exclusion () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let run = Scen.wf_dining ~seed:22L ~adversary:(Adversary.partial_sync ~gst:400 ()) ~graph () in
  Engine.schedule_crash run.Scen.engine 3 ~at:900;
  Engine.run run.Scen.engine ~until:15000;
  let tr = Engine.trace run.Scen.engine in
  (* All violations (if any) happen in the unstable prefix. *)
  let v =
    Dining.Monitor.eventual_weak_exclusion tr ~instance:"dx" ~graph ~horizon:15000
      ~suffix_from:5000
  in
  check "exclusive suffix" true (holds v)

let test_wf_ewx_no_override_is_hygienic () =
  (* With the override disabled, the crash of a diner that holds the fork
     starves its hungry neighbor forever: wait-freedom is lost, which is
     exactly why ◇P is needed. The fork holder is pinned deterministically:
     p1 starts with the fork, eats on it and never exits, then crashes. *)
  let graph = Graphs.Conflict_graph.pair () in
  let engine = Engine.create ~seed:23L ~n:2 ~adversary:(Adversary.partial_sync ()) () in
  for pid = 0 to 1 do
    let ctx = Engine.ctx engine pid in
    let fd, oracle = Detectors.Heartbeat.component ctx ~peers:[ 0; 1 ] () in
    Engine.register engine pid fd;
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance:"dx" ~graph
        ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
        ~config:{ Dining.Wf_ewx.suspicion_override = false }
        ()
    in
    Engine.register engine pid comp;
    if pid = 1 then Engine.register engine pid (Dining.Clients.glutton ctx ~handle ())
    else Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.schedule_crash engine 1 ~at:300;
  Engine.run engine ~until:8000;
  let eats_p0 = Dining.Monitor.eat_count (Engine.trace engine) ~instance:"dx" ~pid:0 in
  check "p0 starves behind the dead fork holder" true (eats_p0 = 0);
  (* The identical scenario with the override on recovers wait-freedom. *)
  let run = Scen.wf_dining ~seed:23L ~graph ~suspicion_override:true ~greedy:false () in
  (let ctx0 = Engine.ctx run.Scen.engine 0 and ctx1 = Engine.ctx run.Scen.engine 1 in
   Engine.register run.Scen.engine 0 (Dining.Clients.greedy ctx0 ~handle:run.Scen.handles.(0) ());
   Engine.register run.Scen.engine 1 (Dining.Clients.glutton ctx1 ~handle:run.Scen.handles.(1) ()));
  Engine.schedule_crash run.Scen.engine 1 ~at:300;
  Engine.run run.Scen.engine ~until:8000;
  let eats =
    Dining.Monitor.eat_count (Engine.trace run.Scen.engine) ~instance:"dx" ~pid:0
  in
  check "override restores progress" true (eats > 20)

let test_wf_ewx_fork_invariants () =
  (* At most one fork per edge exists among the two endpoints (it may be in
     flight); dirty forks only at holders. Checked online every tick. *)
  let graph = Graphs.Conflict_graph.ring ~n:4 in
  let run = Scen.wf_dining ~seed:25L ~graph () in
  let violations = ref 0 in
  Engine.on_tick run.Scen.engine (fun () ->
      List.iter
        (fun (p, q) ->
          let dp = run.Scen.debugs.(p) and dq = run.Scen.debugs.(q) in
          if dp.Dining.Wf_ewx.has_fork q && dq.Dining.Wf_ewx.has_fork p then incr violations)
        (Graphs.Conflict_graph.edges graph));
  Engine.run run.Scen.engine ~until:5000;
  Alcotest.(check int) "never two forks on one edge" 0 !violations

let test_wf_ewx_virtual_eating_only_under_suspicion () =
  let graph = Graphs.Conflict_graph.pair () in
  let run = Scen.wf_dining ~seed:26L ~graph () in
  Engine.schedule_crash run.Scen.engine 1 ~at:400;
  let saw_virtual = ref false in
  Engine.on_tick run.Scen.engine (fun () ->
      if run.Scen.debugs.(0).Dining.Wf_ewx.eating_virtually () then begin
        saw_virtual := true;
        (* A virtual eater must currently suspect the fork owner. *)
        if not (run.Scen.oracles.(0).Detectors.Oracle.suspected 1) then
          Alcotest.fail "virtual eating without suspicion"
      end);
  Engine.run run.Scen.engine ~until:6000;
  check "p0 eventually ate virtually past the crashed p1" true !saw_virtual

let test_wf_ewx_clique_and_star () =
  List.iter
    (fun (name, graph) ->
      let run = Scen.wf_dining ~seed:27L ~graph () in
      let n = Graphs.Conflict_graph.n graph in
      Engine.schedule_crash run.Scen.engine (n - 1) ~at:800;
      Engine.run run.Scen.engine ~until:15000;
      let tr = Engine.trace run.Scen.engine in
      let v = Dining.Monitor.wait_freedom tr ~instance:"dx" ~n ~horizon:15000 ~slack:4000 in
      check (name ^ ": wait-free") true (holds v);
      let x =
        Dining.Monitor.eventual_weak_exclusion tr ~instance:"dx" ~graph ~horizon:15000
          ~suffix_from:6000
      in
      check (name ^ ": eventually exclusive") true (holds x))
    [
      ("clique4", Graphs.Conflict_graph.clique ~n:4);
      ("star5", Graphs.Conflict_graph.star ~n:5);
    ]

(* ------------------------------------------------------------------ *)
(* Eventually k-fair dining *)

let kfair_run ?(seed = 31L) ?(adversary = Adversary.partial_sync ~gst:400 ()) ?(horizon = 12000)
    ?(crash = []) ~graph () =
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary () in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let fd, oracle = Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) () in
    Engine.register engine pid fd;
    let comp, handle, _ =
      Dining.Kfair.component ctx ~instance:"kf" ~graph
        ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
        ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) crash;
  Engine.run engine ~until:horizon;
  engine

let test_kfair_wait_freedom () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine = kfair_run ~graph ~crash:[ (4, 900) ] () in
  let tr = Engine.trace engine in
  let v = Dining.Monitor.wait_freedom tr ~instance:"kf" ~n:5 ~horizon:12000 ~slack:3000 in
  check "wait-free" true (holds v)

let test_kfair_eventual_exclusion () =
  let graph = Graphs.Conflict_graph.clique ~n:4 in
  let engine = kfair_run ~seed:32L ~graph ~crash:[ (2, 700) ] () in
  let tr = Engine.trace engine in
  let v =
    Dining.Monitor.eventual_weak_exclusion tr ~instance:"kf" ~graph ~horizon:12000
      ~suffix_from:5000
  in
  check "exclusive suffix" true (holds v)

let test_kfair_stale_request_regression () =
  (* Regression: a storm-delayed request from an old session used to
     overwrite the neighbor's record of the current one; the stale grant was
     dropped by the requester and its real request lost — the whole graph
     deadlocked behind the priority minimum (sweep find, bursty adversary,
     dense random graphs). Timestamps are now tracked monotonically. *)
  List.iter
    (fun seed ->
      let graph = Graphs.Conflict_graph.random ~n:7 ~p:0.5 ~rng:(Prng.create seed) in
      let engine =
        kfair_run ~seed ~adversary:(Adversary.bursty ~gst:800 ()) ~graph ~horizon:14000
          ~crash:
            [ (6, 600 + Int64.to_int (Int64.rem seed 1500L)); (1, 2200) ]
          ()
      in
      let v =
        Dining.Monitor.wait_freedom (Engine.trace engine) ~instance:"kf" ~n:7 ~horizon:14000
          ~slack:4500
      in
      if not (holds v) then
        Alcotest.failf "seed %Ld: %s" seed (String.concat "; " v.Detectors.Properties.details))
    [ 10932L; 12665L; 16131L; 21330L ]

let test_kfair_bounded_overtaking () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine = kfair_run ~seed:33L ~graph () in
  let tr = Engine.trace engine in
  let k = Ix.max_overtaking (Ix.build tr ~instance:"kf") ~graph ~after:5000 ~horizon:12000 in
  check "suffix overtaking <= 2" true (k <= 2)

(* ------------------------------------------------------------------ *)
(* FTME: perpetual exclusion on a trusting detector *)

let ftme_run ?(seed = 41L) ?(adversary = Adversary.async_uniform ()) ?(horizon = 12000)
    ?(crash = []) ?(eat_ticks = 3) ?oracle_windows ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let suspects =
      match oracle_windows with
      | None ->
          let comp, oracle =
            Detectors.Ground_truth.trusting ctx ~detection_delay:25 ~peers:(List.init n Fun.id)
              ()
          in
          Engine.register engine pid comp;
          fun () -> oracle.Detectors.Oracle.suspects ()
      | Some windows ->
          (* Ablation: an eventually-accurate oracle that errs early. *)
          let comp, base =
            Detectors.Ground_truth.trusting ctx ~detection_delay:25 ~peers:(List.init n Fun.id)
              ()
          in
          Engine.register engine pid comp;
          let wins = if pid = n - 1 then windows else [] in
          let icomp, wrapped = Detectors.Injected.wrap ctx ~base ~windows:wins in
          Engine.register engine pid icomp;
          fun () -> wrapped.Detectors.Oracle.suspects ()
    in
    let comp, handle, _debug =
      Dining.Ftme.component ctx ~instance:"fx" ~members:(List.init n Fun.id) ~suspects ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~eat_ticks ~handle ())
  done;
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) crash;
  Engine.run engine ~until:horizon;
  engine

let test_ftme_perpetual_exclusion_no_crash () =
  let engine = ftme_run ~n:4 () in
  let graph = Graphs.Conflict_graph.clique ~n:4 in
  let v =
    Ix.perpetual_weak_exclusion (Ix.build (Engine.trace engine) ~instance:"fx") ~graph
      ~horizon:12000
  in
  check "never a violation" true (holds v)

let test_ftme_survives_server_crashes () =
  (* Crash the first two servers in sequence; exclusion stays perpetual and
     the survivors keep eating. *)
  let engine = ftme_run ~seed:42L ~n:5 ~crash:[ (0, 1500); (1, 4000) ] () in
  let graph = Graphs.Conflict_graph.clique ~n:5 in
  let tr = Engine.trace engine in
  let v = Ix.perpetual_weak_exclusion (Ix.build tr ~instance:"fx") ~graph ~horizon:12000 in
  check "perpetual exclusion across fail-overs" true (holds v);
  let w = Dining.Monitor.wait_freedom tr ~instance:"fx" ~n:5 ~horizon:12000 ~slack:3000 in
  check "wait-free across fail-overs" true (holds w);
  for pid = 2 to 4 do
    check
      (Printf.sprintf "p%d kept eating" pid)
      true
      (Dining.Monitor.eat_count tr ~instance:"fx" ~pid > 15)
  done

let test_ftme_crash_of_cs_holder () =
  (* The grantee dies inside its critical section; the server reaps the
     grant and the system moves on. *)
  let engine = ftme_run ~seed:43L ~n:4 ~eat_ticks:40 ~crash:[ (2, 800) ] () in
  let graph = Graphs.Conflict_graph.clique ~n:4 in
  let tr = Engine.trace engine in
  let v = Ix.perpetual_weak_exclusion (Ix.build tr ~instance:"fx") ~graph ~horizon:12000 in
  check "perpetual exclusion" true (holds v);
  let w = Dining.Monitor.wait_freedom tr ~instance:"fx" ~n:4 ~horizon:12000 ~slack:3000 in
  check "wait-free" true (holds w)

let test_ftme_stale_message_regressions () =
  (* Regressions for two failover races found by grid sweeps under the
     bursty adversary: (seed 1777) a storm-delayed release of an earlier
     epoch both satisfied the new server's recovery round and cleared its
     fresh grant — double grant, exclusion violated; (seed 12655) a status
     reply installing an old grant arrived after that grant's own release —
     the server waited forever. Fixed by unique grant ids carried through
     grant/status/release and a released-ids ledger. *)
  List.iter
    (fun seed ->
      let engine =
        ftme_run ~seed ~adversary:(Adversary.bursty ~gst:800 ()) ~n:4 ~crash:[ (0, 300) ]
          ~horizon:12000 ()
      in
      let graph = Graphs.Conflict_graph.clique ~n:4 in
      let trace = Engine.trace engine in
      let wx = Ix.perpetual_weak_exclusion (Ix.build trace ~instance:"fx") ~graph ~horizon:12000 in
      let wf = Dining.Monitor.wait_freedom trace ~instance:"fx" ~n:4 ~horizon:12000 ~slack:4000 in
      if not (holds wx) then Alcotest.failf "seed %Ld: exclusion violated" seed;
      if not (holds wf) then Alcotest.failf "seed %Ld: starvation" seed)
    [ 1777L; 12655L; 5000L; 9662L ]

let test_ftme_needs_trusting_accuracy () =
  (* Ablation: wrongful suspicion of the live server lets a usurper take
     over and double-grant — perpetual weak exclusion breaks. This is the
     empirical face of "◇P is insufficient for wait-free WX" [11]. *)
  let windows =
    [
      { Detectors.Injected.from_ = 300; until = 2000; target = 0 };
      { Detectors.Injected.from_ = 300; until = 2000; target = 1 };
      { Detectors.Injected.from_ = 300; until = 2000; target = 2 };
    ]
  in
  let engine = ftme_run ~seed:44L ~n:4 ~eat_ticks:400 ~oracle_windows:windows () in
  let graph = Graphs.Conflict_graph.clique ~n:4 in
  let v =
    Ix.perpetual_weak_exclusion (Ix.build (Engine.trace engine) ~instance:"fx") ~graph
      ~horizon:12000
  in
  check "exclusion violated under false suspicion" false (holds v)

(* ------------------------------------------------------------------ *)
(* FL1: perpetual exclusion with crash locality 1 *)

let fl1_run ?(seed = 5L) ?(with_detector = true) ?(crash = []) ?(glutton = []) ~graph
    ~horizon () =
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) () in
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let sus = if with_detector then suspects pid else fun () -> Types.Pidset.empty in
    let comp, handle = Dining.Fl1.component ctx ~instance:"fl" ~graph ~suspects:sus () in
    Engine.register engine pid comp;
    if List.mem pid glutton then Engine.register engine pid (Dining.Clients.glutton ctx ~handle ())
    else Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) crash;
  Engine.run engine ~until:horizon;
  engine

let test_fl1_perpetual_exclusion () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine = fl1_run ~graph ~horizon:10000 ~crash:[ (2, 800) ] () in
  let v =
    Ix.perpetual_weak_exclusion (Ix.build (Engine.trace engine) ~instance:"fl") ~graph
      ~horizon:10000
  in
  check "never a violation, even pre-convergence" true (holds v)

let test_fl1_locality_bounded () =
  let graph = Graphs.Conflict_graph.path ~n:6 in
  let engine = fl1_run ~graph ~horizon:12000 ~crash:[ (0, 1000) ] () in
  let loc =
    Ix.failure_locality (Ix.build (Engine.trace engine) ~instance:"fl") ~graph ~horizon:12000
      ~slack:4000
  in
  check "locality <= 1" true (match loc with Some l -> l <= 1 | None -> false);
  (* distance-2+ diners keep eating at full speed *)
  for pid = 2 to 5 do
    check
      (Printf.sprintf "p%d unaffected" pid)
      true
      (Dining.Monitor.eat_count (Engine.trace engine) ~instance:"fl" ~pid > 100)
  done

let test_fl1_no_crash_no_starvation () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine = fl1_run ~seed:6L ~graph ~horizon:10000 () in
  let loc =
    Ix.failure_locality (Ix.build (Engine.trace engine) ~instance:"fl") ~graph ~horizon:10000
      ~slack:3000
  in
  Alcotest.(check (option int)) "locality 0" (Some 0) loc

let test_fl1_baseline_chain_starvation () =
  (* Without a detector the starvation chain is unbounded: pin the crashed
     process inside its critical section (so it certainly dies holding the
     fork) and watch the whole path behind it stall. *)
  let graph = Graphs.Conflict_graph.path ~n:6 in
  let engine =
    fl1_run ~with_detector:false ~graph ~horizon:12000 ~crash:[ (0, 1000) ] ~glutton:[ 0 ] ()
  in
  let starved =
    Ix.starved (Ix.build (Engine.trace engine) ~instance:"fl") ~n:6 ~horizon:12000 ~slack:4000
  in
  check "everyone behind the crash starves" true (List.length starved >= 4);
  (* ... while the detector-equipped FL1 run with the same pinned crash
     confines the damage to the neighbor. *)
  let engine =
    fl1_run ~with_detector:true ~graph ~horizon:12000 ~crash:[ (0, 1000) ] ~glutton:[ 0 ] ()
  in
  let loc =
    Ix.failure_locality (Ix.build (Engine.trace engine) ~instance:"fl") ~graph ~horizon:12000
      ~slack:4000
  in
  check "fl1 confines the same crash to locality 1" true
    (match loc with Some l -> l <= 1 | None -> false)

(* ------------------------------------------------------------------ *)
(* Regressions and service-interface behaviour *)

let test_wf_ewx_random_graph_regression () =
  (* Regression: under dirty/clean hygiene these dense random graphs
     deadlocked after the oracle's mistake-prone prefix (virtual meals
     corrupted the precedence DAG) or livelocked when one-shot requests
     were consumed by raced-back yields. *)
  List.iter
    (fun s ->
      let seed = Int64.of_int (s * 1111) in
      let graph = Graphs.Conflict_graph.random ~n:6 ~p:0.5 ~rng:(Prng.create seed) in
      let run =
        Core.Scenario.wf_dining ~seed ~adversary:(Adversary.partial_sync ~gst:300 ()) ~graph ()
      in
      Engine.run run.Core.Scenario.engine ~until:10000;
      let trace = Engine.trace run.Core.Scenario.engine in
      let wf = Dining.Monitor.wait_freedom trace ~instance:"dx" ~n:6 ~horizon:10000 ~slack:3000 in
      if not (holds wf) then
        Alcotest.failf "seed %Ld: %s" seed
          (String.concat "; " wf.Detectors.Properties.details))
    [ 1; 2; 3; 4; 5 ]

let test_fairness_index () =
  let tr = Trace.create () in
  let eat pid at =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_ = Types.Hungry; to_ = Types.Eating })
  in
  eat 0 1;
  eat 0 2;
  eat 1 3;
  eat 1 4;
  Alcotest.(check (float 1e-9)) "even meals" 1.0
    (Ix.fairness_index (Ix.build tr ~instance:"i") ~pids:[ 0; 1 ]);
  let skew = Ix.fairness_index (Ix.build tr ~instance:"i") ~pids:[ 0; 1; 2 ] in
  check "skew below 1" true (skew < 1.0);
  Alcotest.(check (float 1e-9)) "no meals at all" 1.0
    (Ix.fairness_index (Ix.build tr ~instance:"i") ~pids:[ 7; 8 ])

let test_cell_misuse_raises () =
  let engine = Engine.create ~seed:1L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let ctx = Engine.ctx engine 0 in
  let handle = Dining.Spec.Cell.handle (Dining.Spec.Cell.create ctx ~instance:"i") in
  (try
     Dining.Spec.exit_eating handle;
     Alcotest.fail "exit while thinking accepted"
   with Invalid_argument _ -> ());
  Dining.Spec.hungry handle;
  (try
     Dining.Spec.hungry handle;
     Alcotest.fail "double hungry accepted"
   with Invalid_argument _ -> ())

let test_clients_n_sessions () =
  let graph = Graphs.Conflict_graph.pair () in
  let engine = Engine.create ~seed:9L ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let counters =
    Array.init 2 (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"hyg" ~graph () in
        Engine.register engine pid comp;
        let client, count = Dining.Clients.n_sessions ctx ~handle ~sessions:5 () in
        Engine.register engine pid client;
        count)
  in
  Engine.run engine ~until:4000;
  Array.iteri
    (fun pid count ->
      Alcotest.(check int) (Printf.sprintf "p%d exactly five meals" pid) 5 (count ()))
    counters

(* ------------------------------------------------------------------ *)
(* Monitors on synthetic traces *)

let test_monitor_detects_violation () =
  let tr = Trace.create () in
  let trans pid at from_ to_ =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_; to_ })
  in
  trans 0 1 Types.Thinking Types.Hungry;
  trans 0 2 Types.Hungry Types.Eating;
  trans 1 3 Types.Thinking Types.Hungry;
  trans 1 4 Types.Hungry Types.Eating;
  trans 0 10 Types.Eating Types.Exiting;
  trans 1 12 Types.Eating Types.Exiting;
  let graph = Graphs.Conflict_graph.pair () in
  let vs = Ix.exclusion_violations (Ix.build tr ~instance:"i") ~graph ~horizon:20 in
  Alcotest.(check int) "one overlap" 1 (List.length vs);
  let v = List.hd vs in
  Alcotest.(check int) "overlap start" 4 v.Dining.Monitor.at

let test_monitor_crash_clips_liveness () =
  (* A diner that crashes while eating stops counting as a live eater. *)
  let tr = Trace.create () in
  let trans pid at from_ to_ =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_; to_ })
  in
  trans 0 1 Types.Thinking Types.Hungry;
  trans 0 2 Types.Hungry Types.Eating;
  Trace.append tr ~at:5 (Trace.Crash { pid = 0 });
  trans 1 7 Types.Thinking Types.Hungry;
  trans 1 8 Types.Hungry Types.Eating;
  let graph = Graphs.Conflict_graph.pair () in
  let vs = Ix.exclusion_violations (Ix.build tr ~instance:"i") ~graph ~horizon:20 in
  Alcotest.(check int) "no live overlap" 0 (List.length vs)

let test_monitor_exiting_finite () =
  let tr = Trace.create () in
  let trans pid at from_ to_ =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_; to_ })
  in
  trans 0 1 Types.Thinking Types.Hungry;
  trans 0 2 Types.Hungry Types.Eating;
  trans 0 3 Types.Eating Types.Exiting;
  (* p0 never leaves Exiting *)
  let v = Dining.Monitor.exiting_finite tr ~instance:"i" ~n:1 ~horizon:1000 ~slack:100 in
  check "stuck exiting detected" false v.Detectors.Properties.holds;
  trans 0 10 Types.Exiting Types.Thinking;
  let v = Dining.Monitor.exiting_finite tr ~instance:"i" ~n:1 ~horizon:1000 ~slack:100 in
  check "completed exit accepted" true v.Detectors.Properties.holds

let test_monitor_overtaking () =
  let tr = Trace.create () in
  let trans pid at from_ to_ =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_; to_ })
  in
  (* p0 hungry the whole time; p1 eats three times meanwhile. *)
  trans 0 1 Types.Thinking Types.Hungry;
  List.iter
    (fun t ->
      trans 1 t Types.Thinking Types.Hungry;
      trans 1 (t + 1) Types.Hungry Types.Eating;
      trans 1 (t + 3) Types.Eating Types.Exiting;
      trans 1 (t + 4) Types.Exiting Types.Thinking)
    [ 2; 10; 20 ];
  trans 0 30 Types.Hungry Types.Eating;
  let graph = Graphs.Conflict_graph.pair () in
  let k = Ix.max_overtaking (Ix.build tr ~instance:"i") ~graph ~after:0 ~horizon:40 in
  Alcotest.(check int) "three overtakes" 3 k

let () =
  Alcotest.run "dining"
    [
      ( "hygienic",
        [
          Alcotest.test_case "perpetual exclusion" `Quick test_hygienic_perpetual_exclusion;
          Alcotest.test_case "everyone eats" `Quick test_hygienic_everyone_eats;
          Alcotest.test_case "starves after crash (baseline)" `Quick
            test_hygienic_starves_after_crash;
        ] );
      ( "wf-ewx",
        [
          Alcotest.test_case "wait-freedom with crashes" `Quick
            test_wf_ewx_wait_freedom_with_crashes;
          Alcotest.test_case "eventual exclusion" `Quick test_wf_ewx_eventual_exclusion;
          Alcotest.test_case "no override = no progress past crash" `Quick
            test_wf_ewx_no_override_is_hygienic;
          Alcotest.test_case "fork uniqueness invariant" `Quick test_wf_ewx_fork_invariants;
          Alcotest.test_case "virtual eating only under suspicion" `Quick
            test_wf_ewx_virtual_eating_only_under_suspicion;
          Alcotest.test_case "clique and star topologies" `Quick test_wf_ewx_clique_and_star;
        ] );
      ( "kfair",
        [
          Alcotest.test_case "wait-freedom" `Quick test_kfair_wait_freedom;
          Alcotest.test_case "eventual exclusion" `Quick test_kfair_eventual_exclusion;
          Alcotest.test_case "bounded suffix overtaking" `Quick test_kfair_bounded_overtaking;
          Alcotest.test_case "stale-request deadlock regression" `Quick
            test_kfair_stale_request_regression;
        ] );
      ( "ftme",
        [
          Alcotest.test_case "perpetual exclusion" `Quick test_ftme_perpetual_exclusion_no_crash;
          Alcotest.test_case "survives server crashes" `Quick test_ftme_survives_server_crashes;
          Alcotest.test_case "crash of CS holder" `Quick test_ftme_crash_of_cs_holder;
          Alcotest.test_case "needs trusting accuracy (ablation)" `Quick
            test_ftme_needs_trusting_accuracy;
          Alcotest.test_case "stale-message failover regressions" `Quick
            test_ftme_stale_message_regressions;
        ] );
      ( "fl1",
        [
          Alcotest.test_case "perpetual exclusion" `Quick test_fl1_perpetual_exclusion;
          Alcotest.test_case "locality bounded by 1" `Quick test_fl1_locality_bounded;
          Alcotest.test_case "no crash, no starvation" `Quick test_fl1_no_crash_no_starvation;
          Alcotest.test_case "baseline chain starvation" `Quick
            test_fl1_baseline_chain_starvation;
        ] );
      ( "regressions-and-services",
        [
          Alcotest.test_case "random graph deadlock regression" `Quick
            test_wf_ewx_random_graph_regression;
          Alcotest.test_case "fairness index" `Quick test_fairness_index;
          Alcotest.test_case "cell misuse raises" `Quick test_cell_misuse_raises;
          Alcotest.test_case "n_sessions client" `Quick test_clients_n_sessions;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "detects violations" `Quick test_monitor_detects_violation;
          Alcotest.test_case "crash clips liveness" `Quick test_monitor_crash_clips_liveness;
          Alcotest.test_case "overtaking count" `Quick test_monitor_overtaking;
          Alcotest.test_case "exiting finite" `Quick test_monitor_exiting_finite;
        ] );
    ]
