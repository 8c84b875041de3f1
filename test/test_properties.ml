(* Property-based tests (qcheck): invariants checked over randomised seeds,
   topologies, adversaries and fault patterns. Each generated case runs a
   full simulation, so case counts are kept moderate. *)

open Dsim
module Ix = Dining.Monitor.Index

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generators *)

let seed_gen = QCheck2.Gen.map Int64.of_int (QCheck2.Gen.int_range 1 1_000_000)

let adversary_gen =
  QCheck2.Gen.oneofl
    [
      `Sync;
      `Async;
      `Partial 200;
      `Partial 700;
      `Bursty 800;
    ]

let adversary_of = function
  | `Sync -> Adversary.synchronous ()
  | `Async -> Adversary.async_uniform ()
  | `Partial gst -> Adversary.partial_sync ~gst ()
  | `Bursty gst -> Adversary.bursty ~gst ()

let adversary_name a = (adversary_of a).Adversary.name

(* ------------------------------------------------------------------ *)
(* PRNG *)

let prop_prng_bounds =
  QCheck2.Test.make ~name:"prng: int_in stays in range" ~count:200
    QCheck2.Gen.(triple seed_gen (int_range 0 1000) (int_range 1 1000))
    (fun (seed, lo, width) ->
      let rng = Prng.create seed in
      let hi = lo + width in
      let x = Prng.int_in rng ~lo ~hi in
      x >= lo && x <= hi)

let prop_prng_shuffle_multiset =
  QCheck2.Test.make ~name:"prng: shuffle permutes" ~count:100
    QCheck2.Gen.(pair seed_gen (list_size (int_range 0 50) small_int))
    (fun (seed, l) ->
      let rng = Prng.create seed in
      let a = Array.of_list l in
      Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_prng_uniformity =
  QCheck2.Test.make ~name:"prng: rough uniformity of int" ~count:20 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let buckets = Array.make 8 0 in
      let draws = 8000 in
      for _ = 1 to draws do
        let b = Prng.int rng ~bound:8 in
        buckets.(b) <- buckets.(b) + 1
      done;
      (* Every bucket within 25% of the expected mass. *)
      Array.for_all (fun c -> abs (c - (draws / 8)) < draws / 32) buckets)

(* ------------------------------------------------------------------ *)
(* Trace timelines are well-formed for real dining runs *)

let legal_succession a b =
  match (a, b) with
  | Types.Thinking, Types.Hungry
  | Types.Hungry, Types.Eating
  | Types.Eating, Types.Exiting
  | Types.Exiting, Types.Thinking -> true
  | (Types.Thinking | Types.Hungry | Types.Eating | Types.Exiting), _ -> false

let prop_timeline_legal =
  QCheck2.Test.make ~name:"dining phases follow the 4-phase cycle" ~count:15 seed_gen
    (fun seed ->
      let graph = Graphs.Conflict_graph.ring ~n:4 in
      let run = Core.Scenario.wf_dining ~seed ~graph () in
      Engine.run run.Core.Scenario.engine ~until:4000;
      let ix = Ix.build (Engine.trace run.Core.Scenario.engine) ~instance:"dx" in
      List.for_all
        (fun pid ->
          let tl = ref [] in
          Ix.iter_segments ix ~pid ~horizon:4000 (fun a b ph ->
              tl := (a, b, ph) :: !tl);
          let tl = List.rev !tl in
          (* contiguous segments, legal phase successions *)
          let rec check = function
            | (_, b1, p1) :: ((a2, _, p2) :: _ as rest) ->
                b1 = a2 && legal_succession p1 p2 && check rest
            | [ _ ] | [] -> true
          in
          (match tl with (a, _, p) :: _ -> a = 0 && p = Types.Thinking | [] -> false)
          && check tl)
        [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* WF-◇WX dining on random topologies and fault patterns *)

let graph_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Graphs.Conflict_graph.ring ~n) (int_range 3 7);
        map (fun n -> Graphs.Conflict_graph.clique ~n) (int_range 3 5);
        map (fun n -> Graphs.Conflict_graph.star ~n) (int_range 3 7);
        map
          (fun (n, seed) ->
            Graphs.Conflict_graph.random ~n ~p:0.5 ~rng:(Prng.create (Int64.of_int seed)))
          (pair (int_range 3 7) (int_range 1 10000));
      ])

let prop_wf_dining_no_crash =
  QCheck2.Test.make ~name:"wf-◇wx: wait-freedom + eventual exclusion (random graphs)"
    ~count:12
    QCheck2.Gen.(pair seed_gen graph_gen)
    (fun (seed, graph) ->
      let n = Graphs.Conflict_graph.n graph in
      let run =
        Core.Scenario.wf_dining ~seed ~adversary:(Adversary.partial_sync ~gst:300 ()) ~graph ()
      in
      Engine.run run.Core.Scenario.engine ~until:10000;
      let trace = Engine.trace run.Core.Scenario.engine in
      let wf = Dining.Monitor.wait_freedom trace ~instance:"dx" ~n ~horizon:10000 ~slack:3000 in
      let wx =
        Dining.Monitor.eventual_weak_exclusion trace ~instance:"dx" ~graph ~horizon:10000
          ~suffix_from:5000
      in
      wf.Detectors.Properties.holds && wx.Detectors.Properties.holds)

let prop_wf_dining_with_crashes =
  QCheck2.Test.make ~name:"wf-◇wx: survivors keep eating (random crashes)" ~count:12
    QCheck2.Gen.(triple seed_gen (int_range 4 6) (int_range 500 3000))
    (fun (seed, n, crash_at) ->
      let graph = Graphs.Conflict_graph.ring ~n in
      let run =
        Core.Scenario.wf_dining ~seed ~adversary:(Adversary.partial_sync ~gst:300 ()) ~graph ()
      in
      let engine = run.Core.Scenario.engine in
      (* crash one or two diners *)
      Engine.schedule_crash engine (n - 1) ~at:crash_at;
      if n >= 5 then Engine.schedule_crash engine 1 ~at:(crash_at + 700);
      Engine.run engine ~until:14000;
      let trace = Engine.trace engine in
      let wf = Dining.Monitor.wait_freedom trace ~instance:"dx" ~n ~horizon:14000 ~slack:4000 in
      let wx =
        Dining.Monitor.eventual_weak_exclusion trace ~instance:"dx" ~graph ~horizon:14000
          ~suffix_from:8000
      in
      wf.Detectors.Properties.holds && wx.Detectors.Properties.holds)

let prop_wf_dining_fairness =
  QCheck2.Test.make ~name:"wf-◇wx: meals are roughly fair (Jain >= 0.7)" ~count:10
    QCheck2.Gen.(pair seed_gen (int_range 3 6))
    (fun (seed, n) ->
      let graph = Graphs.Conflict_graph.ring ~n:(max 3 n) in
      let run = Core.Scenario.wf_dining ~seed ~graph () in
      Engine.run run.Core.Scenario.engine ~until:10000;
      let trace = Engine.trace run.Core.Scenario.engine in
      Ix.fairness_index (Ix.build trace ~instance:"dx")
        ~pids:(List.init (Graphs.Conflict_graph.n graph) Fun.id)
      >= 0.7)

(* ------------------------------------------------------------------ *)
(* FTME: perpetual exclusion under every generated schedule *)

let prop_ftme_perpetual =
  QCheck2.Test.make ~name:"ftme: perpetual WX + wait-freedom (random schedules)" ~count:10
    QCheck2.Gen.(triple seed_gen adversary_gen (option (int_range 300 4000)))
    (fun (seed, adv, crash) ->
      let n = 4 in
      let engine = Engine.create ~seed ~n ~adversary:(adversary_of adv) () in
      for pid = 0 to n - 1 do
        let ctx = Engine.ctx engine pid in
        let comp, oracle =
          Detectors.Ground_truth.trusting ctx ~detection_delay:25 ~peers:(List.init n Fun.id)
            ()
        in
        Engine.register engine pid comp;
        let dcomp, handle, _ =
          Dining.Ftme.component ctx ~instance:"fx" ~members:(List.init n Fun.id)
            ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
            ()
        in
        Engine.register engine pid dcomp;
        Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
      done;
      (match crash with Some at -> Engine.schedule_crash engine 0 ~at | None -> ());
      Engine.run engine ~until:12000;
      let trace = Engine.trace engine in
      let graph = Graphs.Conflict_graph.clique ~n in
      let wx = Ix.perpetual_weak_exclusion (Ix.build trace ~instance:"fx") ~graph ~horizon:12000 in
      let wf = Dining.Monitor.wait_freedom trace ~instance:"fx" ~n ~horizon:12000 ~slack:4000 in
      if not (wx.Detectors.Properties.holds && wf.Detectors.Properties.holds) then
        QCheck2.Test.fail_reportf "adv=%s crash=%s: %s" (adversary_name adv)
          (match crash with Some t -> string_of_int t | None -> "-")
          (String.concat "; "
             (wx.Detectors.Properties.details @ wf.Detectors.Properties.details))
      else true)

(* ------------------------------------------------------------------ *)
(* The reduction: lemmas + ◇P properties over random schedules *)

let prop_reduction_lemmas =
  QCheck2.Test.make ~name:"reduction: all lemmas hold (random schedules)" ~count:8
    QCheck2.Gen.(triple seed_gen (oneofl [ `Partial 300; `Partial 900; `Bursty 800 ])
                   (option (int_range 500 6000)))
    (fun (seed, adv, crash) ->
      let run = Core.Scenario.wf_extraction ~seed ~adversary:(adversary_of adv) ~n:2 () in
      let engine = run.Core.Scenario.engine in
      (match crash with Some at -> Engine.schedule_crash engine 1 ~at | None -> ());
      Engine.run engine ~until:20000;
      List.for_all
        (fun (pair, online) ->
          let reports =
            Reduction.Lemmas.online_reports online
            @ Reduction.Lemmas.trace_reports ~engine ~pair
          in
          match List.find_opt (fun r -> not (Reduction.Lemmas.ok r)) reports with
          | None -> true
          | Some r ->
              QCheck2.Test.fail_reportf "pair %s lemma %s: %s" pair.Reduction.Pair.name
                r.Reduction.Lemmas.lemma
                (String.concat "; " r.Reduction.Lemmas.violations))
        run.Core.Scenario.onlines)

let prop_reduction_is_evp =
  QCheck2.Test.make ~name:"reduction: extracted detector is ◇P (random schedules)" ~count:8
    QCheck2.Gen.(pair seed_gen (option (int_range 500 6000)))
    (fun (seed, crash) ->
      let run = Core.Scenario.wf_extraction ~seed ~with_lemma_monitors:false ~n:2 () in
      let engine = run.Core.Scenario.engine in
      (match crash with Some at -> Engine.schedule_crash engine 1 ~at | None -> ());
      Engine.run engine ~until:22000;
      let v =
        Detectors.Properties.eventually_perfect (Engine.trace engine) ~detector:"extracted"
          ~n:2 ~initially_suspected:true
      in
      if not v.Detectors.Properties.holds then
        QCheck2.Test.fail_reportf "%s" (String.concat "; " v.Detectors.Properties.details)
      else true)

let prop_t_extraction =
  QCheck2.Test.make ~name:"reduction: T properties over FTME box (random schedules)" ~count:6
    QCheck2.Gen.(pair seed_gen (option (int_range 500 6000)))
    (fun (seed, crash) ->
      let run = Core.Scenario.ftme_extraction ~seed ~n:2 () in
      let engine = run.Core.Scenario.engine in
      (match crash with Some at -> Engine.schedule_crash engine 1 ~at | None -> ());
      Engine.run engine ~until:22000;
      let trace = Engine.trace engine in
      let ta =
        Detectors.Properties.trusting_accuracy trace ~detector:"extracted" ~n:2
          ~initially_suspected:true
      in
      let sc =
        Detectors.Properties.strong_completeness trace ~detector:"extracted" ~n:2
          ~initially_suspected:true
      in
      ta.Detectors.Properties.holds && sc.Detectors.Properties.holds)

(* ------------------------------------------------------------------ *)
(* k-fair dining: overtaking bound *)

let prop_kfair_overtaking =
  QCheck2.Test.make ~name:"kfair: suffix overtaking <= 2 (random graphs)" ~count:8
    QCheck2.Gen.(pair seed_gen graph_gen)
    (fun (seed, graph) ->
      let n = Graphs.Conflict_graph.n graph in
      let engine =
        Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) ()
      in
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
      Engine.run engine ~until:12000;
      let trace = Engine.trace engine in
      Ix.max_overtaking (Ix.build trace ~instance:"kf") ~graph ~after:6000 ~horizon:12000 <= 2)

(* ------------------------------------------------------------------ *)
(* Application substrates *)

let prop_ctm_manager_wins =
  QCheck2.Test.make ~name:"ctm: manager beats raw OF success rate (random loads)" ~count:6
    QCheck2.Gen.(triple seed_gen (int_range 3 5) (int_range 3 8))
    (fun (seed, clients, compute_ticks) ->
      let run with_cm =
        let n = clients + 1 in
        let engine =
          Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:400 ()) ()
        in
        let store_comp, _ = Ctm.Store.component (Engine.ctx engine 0) () in
        Engine.register engine 0 store_comp;
        let client_pids = List.init clients (fun i -> i + 1) in
        let graph =
          Graphs.Conflict_graph.of_edges ~n
            (List.concat_map
               (fun a ->
                 List.filter_map (fun b -> if a < b then Some (a, b) else None) client_pids)
               client_pids)
        in
        let stats =
          List.map
            (fun pid ->
              let ctx = Engine.ctx engine pid in
              let cm =
                if with_cm then begin
                  let fd, oracle = Detectors.Heartbeat.component ctx ~peers:client_pids () in
                  Engine.register engine pid fd;
                  let comp, handle, _ =
                    Dining.Wf_ewx.component ctx ~instance:"cm" ~graph
                      ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
                      ()
                  in
                  Engine.register engine pid comp;
                  Some handle
                end
                else None
              in
              let comp, st = Ctm.Client.component ctx ~store:0 ?cm ~compute_ticks () in
              Engine.register engine pid comp;
              st)
            client_pids
        in
        Engine.run engine ~until:9000;
        let commits =
          List.fold_left (fun acc (st : Ctm.Client.stats) -> acc + st.Ctm.Client.commits) 0 stats
        in
        let aborts =
          List.fold_left (fun acc (st : Ctm.Client.stats) -> acc + st.Ctm.Client.aborts) 0 stats
        in
        float_of_int commits /. float_of_int (max 1 (commits + aborts))
      in
      run true > run false)

let prop_wsn_lifetime_dominates =
  QCheck2.Test.make ~name:"wsn: duty cycling never shortens the lifetime" ~count:5
    QCheck2.Gen.(pair seed_gen (int_range 2 3))
    (fun (seed, nodes_per_area) ->
      let config =
        { Wsn.Model.default_config with Wsn.Model.nodes_per_area; initial_energy = 400 }
      in
      let n = config.Wsn.Model.areas * nodes_per_area in
      let horizon = 8000 in
      let run scheduler =
        let engine =
          Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) ()
        in
        let model = Wsn.Model.setup ~engine ~config ~scheduler () in
        Engine.run engine ~until:horizon;
        match Wsn.Model.lifetime model with Some t -> t | None -> horizon
      in
      run Wsn.Model.Dining >= run Wsn.Model.All_on)

let prop_consensus_agreement =
  QCheck2.Test.make ~name:"consensus: agreement + validity (random inputs/crashes)" ~count:8
    ~print:(fun (seed, inputs, crash) ->
      Printf.sprintf "seed=%Ld inputs=[%s] crash=%s" seed
        (String.concat ";" (List.map string_of_int inputs))
        (match crash with Some t -> string_of_int t | None -> "-"))
    QCheck2.Gen.(
      triple seed_gen
        (list_size (return 4) (int_range 0 1000))
        (option (int_range 50 2000)))
    (fun (seed, inputs, crash) ->
      let n = 4 in
      let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) () in
      let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
      let instances =
        List.init n (fun pid ->
            let ctx = Engine.ctx engine pid in
            let c =
              Agreement.Consensus.create ctx ~members:(List.init n Fun.id)
                ~suspects:(suspects pid) ()
            in
            Engine.register engine pid c.Agreement.Consensus.component;
            c.Agreement.Consensus.propose (List.nth inputs pid);
            c)
      in
      (match crash with Some at -> Engine.schedule_crash engine 3 ~at | None -> ());
      Engine.run engine ~until:12000;
      let trace = Engine.trace engine in
      let ag = (Agreement.Consensus.agreement trace).Detectors.Properties.holds in
      let validity =
        List.for_all
          (fun (c : Agreement.Consensus.t) ->
            match c.Agreement.Consensus.decided () with
            | Some v -> List.mem v inputs
            | None -> true)
          instances
      in
      let termination =
        List.for_all
          (fun pid ->
            (not (Engine.is_live engine pid))
            || (List.nth instances pid).Agreement.Consensus.decided () <> None)
          (List.init n Fun.id)
      in
      ag && validity && termination)

(* ------------------------------------------------------------------ *)
(* Checker metamorphic tests on synthetic traces *)

let flips_gen =
  (* A chronological flip sequence with strictly increasing times. *)
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    let* gaps = list_size (return n) (int_range 1 50) in
    let* start_suspected = bool in
    let times = List.rev (snd (List.fold_left (fun (t, acc) g -> (t + g, (t + g) :: acc)) (0, []) gaps)) in
    return
      (List.mapi (fun i t -> (t, if start_suspected then i mod 2 = 0 else i mod 2 = 1)) times))

let trace_of_flips ?(crash = None) flips =
  let tr = Trace.create () in
  (match crash with Some at -> Trace.append tr ~at (Trace.Crash { pid = 1 }) | None -> ());
  (* The checkers judge every ordered pair; give the mirror direction a
     trivially convergent history so only the generated pair matters. *)
  Trace.append tr ~at:0 (Trace.Trust { detector = "d"; owner = 1; target = 0 });
  List.iter
    (fun (t, v) ->
      Trace.append tr ~at:t
        (if v then Trace.Suspect { detector = "d"; owner = 0; target = 1 }
         else Trace.Trust { detector = "d"; owner = 0; target = 1 }))
    flips;
  tr

let prop_suspected_at_consistent =
  QCheck2.Test.make ~name:"trace: suspected_at agrees with the last flip" ~count:200 flips_gen
    (fun flips ->
      let tr = trace_of_flips flips in
      let check_at at =
        let expected =
          List.fold_left (fun acc (t, v) -> if t <= at then v else acc) true flips
        in
        Trace.suspected_at tr ~detector:"d" ~owner:0 ~target:1 ~at ~initially:true = expected
      in
      List.for_all check_at [ 0; 13; 100; 500; 10000 ])

let prop_trusting_accuracy_checker =
  QCheck2.Test.make
    ~name:"properties: trusting-accuracy checker agrees with a reference decision" ~count:200
    ~print:(fun flips ->
      String.concat " " (List.map (fun (t, v) -> Printf.sprintf "%d:%b" t v) flips))
    flips_gen
    (fun flips ->
      let tr = trace_of_flips flips in
      (* Reference: a violation exists iff some Suspect follows a Trust (the
         target never crashes here), or the sequence ends suspected. *)
      let rec has_revocation seen_trust = function
        | [] -> false
        | (_, false) :: rest -> has_revocation true rest
        | (_, true) :: rest -> (seen_trust && true) || has_revocation seen_trust rest
      in
      let ends_suspected = List.fold_left (fun _ (_, v) -> v) true flips in
      let expected_violation = has_revocation false flips || ends_suspected in
      let v =
        Detectors.Properties.trusting_accuracy tr ~detector:"d" ~n:2 ~initially_suspected:true
      in
      v.Detectors.Properties.holds = not expected_violation)

let prop_detection_time_is_last_onset =
  QCheck2.Test.make ~name:"properties: detection time = last onset of suspicion" ~count:200
    flips_gen
    (fun flips ->
      let tr = trace_of_flips flips in
      let expected =
        if not (List.fold_left (fun _ (_, v) -> v) true flips) then None
        else
          match List.filter (fun (_, v) -> v) flips with
          | [] -> Some 0
          | l -> Some (fst (List.nth l (List.length l - 1)))
      in
      Detectors.Properties.detection_time tr ~detector:"d" ~owner:0 ~target:1
        ~initially_suspected:true
      = expected)

(* ------------------------------------------------------------------ *)
(* Phase naming and the exported transition relation *)

let phase_gen = QCheck2.Gen.oneofl [ Types.Thinking; Types.Hungry; Types.Eating; Types.Exiting ]

let prop_phase_string_roundtrip =
  QCheck2.Test.make ~name:"phase: of_string inverts to_string" ~count:100 phase_gen (fun p ->
      Types.phase_of_string (Types.phase_to_string p) = Some p)

let prop_phase_of_string_total =
  (* Strings outside the four phase names map to None — of_string never
     guesses, so trace parsing fails loudly on a corrupt phase label. *)
  QCheck2.Test.make ~name:"phase: of_string rejects non-phase strings" ~count:200
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 12))
    (fun s ->
      match Types.phase_of_string s with
      | Some p -> Types.phase_to_string p = s
      | None -> not (List.mem s [ "thinking"; "hungry"; "eating"; "exiting" ]))

(* The relation [Dining.Spec] exports as data is exactly the paper's
   Section-4 diner state machine: the single 4-cycle
   thinking -> hungry -> eating -> exiting -> thinking, nothing else. *)
let test_spec_transition_relation () =
  Alcotest.(check int) "four edges" 4 (List.length Dining.Spec.legal_transitions);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s->%s is legal" (Types.phase_to_string a) (Types.phase_to_string b))
        true
        (List.mem (a, b) Dining.Spec.legal_transitions))
    [
      (Types.Thinking, Types.Hungry);
      (Types.Hungry, Types.Eating);
      (Types.Eating, Types.Exiting);
      (Types.Exiting, Types.Thinking);
    ];
  let all = [ Types.Thinking; Types.Hungry; Types.Eating; Types.Exiting ] in
  List.iter
    (fun from_ ->
      List.iter
        (fun to_ ->
          let expected =
            match (from_, to_) with
            | Types.Thinking, Types.Hungry
            | Types.Hungry, Types.Eating
            | Types.Eating, Types.Exiting
            | Types.Exiting, Types.Thinking ->
                true
            | _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "legal_transition %s %s" (Types.phase_to_string from_)
               (Types.phase_to_string to_))
            expected
            (Dining.Spec.legal_transition ~from_ ~to_))
        all)
    all

let () =
  Alcotest.run "properties"
    [
      ( "prng",
        List.map to_alcotest
          [ prop_prng_bounds; prop_prng_shuffle_multiset; prop_prng_uniformity ] );
      ( "spec",
        List.map to_alcotest [ prop_phase_string_roundtrip; prop_phase_of_string_total ]
        @ [ Alcotest.test_case "transition relation is the paper's 4-cycle" `Quick
              test_spec_transition_relation ] );
      ("trace", List.map to_alcotest [ prop_timeline_legal; prop_suspected_at_consistent ]);
      ( "dining",
        List.map to_alcotest
          [ prop_wf_dining_no_crash; prop_wf_dining_with_crashes; prop_wf_dining_fairness ] );
      ("ftme", List.map to_alcotest [ prop_ftme_perpetual ]);
      ( "reduction",
        List.map to_alcotest
          [ prop_reduction_lemmas; prop_reduction_is_evp; prop_t_extraction ] );
      ("kfair", List.map to_alcotest [ prop_kfair_overtaking ]);
      ( "applications",
        List.map to_alcotest
          [ prop_ctm_manager_wins; prop_wsn_lifetime_dominates; prop_consensus_agreement ] );
      ( "checkers",
        List.map to_alcotest
          [ prop_trusting_accuracy_checker; prop_detection_time_is_last_onset ] );
    ]
