(* Differential test of Dining.Monitor against the pre-index monitors in
   monitor_reference.ml, and of Obs.Span against the streaming fold in
   span_reference.ml: every public check, segment list and span list, on
   the checked-in corpus, on random fuzz configs (the broken wf-dropfork
   variant, a wf whose ◇P suspects everyone forever, and crash-heavy
   schedules among them) and on hand-made traces at the edges of the
   segment rule, must give the same verdicts, the same detail strings in
   the same order, the same violation lists, meal counts, segments and
   spans. Check.Runner's outcomes, which read one shared index, are
   compared the same way. *)

open Dsim
module R = Monitor_reference
module M = Dining.Monitor

let str_verdict (v : Detectors.Properties.verdict) =
  Printf.sprintf "holds=%b [%s]" v.Detectors.Properties.holds
    (String.concat " | " v.Detectors.Properties.details)

let str_list f xs = "[" ^ String.concat "; " (List.map f xs) ^ "]"
let str_ints = str_list string_of_int
let str_pair (a, b) = Printf.sprintf "(%d,%d)" a b
let str_opt = function None -> "None" | Some x -> Printf.sprintf "Some %d" x

let same what ~reference ~got =
  if not (String.equal reference got) then
    Alcotest.failf "%s\n  reference: %s\n  index:     %s" what reference got

let str_span (sp : Obs.Span.span) =
  Printf.sprintf "%s/p%d:%s[%d,%d)%s" sp.Obs.Span.instance sp.Obs.Span.pid
    (Types.phase_to_string sp.Obs.Span.phase)
    sp.Obs.Span.start sp.Obs.Span.stop
    (if sp.Obs.Span.closed then "" else "open")

(* Every public check on one trace, at one horizon and slack: the four
   one-check forms over the trace, everything else over one index. *)
let compare_all ~ctx trace ~instance ~graph ~horizon ~slack =
  let n = Graphs.Conflict_graph.n graph in
  let ix = M.Index.build trace ~instance in
  let what name = Printf.sprintf "%s: %s (horizon %d, slack %d)" ctx name horizon slack in
  let suffix_from = horizon / 2 in
  same (what "wait_freedom")
    ~reference:(str_verdict (R.wait_freedom trace ~instance ~n ~horizon ~slack))
    ~got:(str_verdict (M.wait_freedom trace ~instance ~n ~horizon ~slack));
  same (what "exiting_finite")
    ~reference:(str_verdict (R.exiting_finite trace ~instance ~n ~horizon ~slack))
    ~got:(str_verdict (M.exiting_finite trace ~instance ~n ~horizon ~slack));
  same (what "eventual_weak_exclusion")
    ~reference:
      (str_verdict (R.eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from))
    ~got:(str_verdict (M.eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from));
  same (what "perpetual_weak_exclusion")
    ~reference:(str_verdict (R.perpetual_weak_exclusion trace ~instance ~graph ~horizon))
    ~got:(str_verdict (M.Index.perpetual_weak_exclusion ix ~graph ~horizon));
  same (what "exclusion_violations")
    ~reference:
      (str_list
         (fun (v : R.violation) -> Printf.sprintf "%d:%d-%d" v.R.at v.R.p v.R.q)
         (R.exclusion_violations trace ~instance ~graph ~horizon))
    ~got:
      (str_list
         (fun (v : M.violation) -> Printf.sprintf "%d:%d-%d" v.M.at v.M.p v.M.q)
         (M.Index.exclusion_violations ix ~graph ~horizon));
  same (what "last_violation_time")
    ~reference:(str_opt (R.last_violation_time trace ~instance ~graph ~horizon))
    ~got:(str_opt (M.Index.last_violation_time ix ~graph ~horizon));
  List.iter
    (fun after ->
      same (what (Printf.sprintf "max_overtaking after %d" after))
        ~reference:(string_of_int (R.max_overtaking trace ~instance ~graph ~after ~horizon))
        ~got:(string_of_int (M.Index.max_overtaking ix ~graph ~after ~horizon)))
    [ 0; horizon / 2 ];
  same (what "starved")
    ~reference:(str_ints (R.starved trace ~instance ~n ~horizon ~slack))
    ~got:(str_ints (M.Index.starved ix ~n ~horizon ~slack));
  same (what "failure_locality")
    ~reference:(str_opt (R.failure_locality trace ~instance ~graph ~horizon ~slack))
    ~got:(str_opt (M.Index.failure_locality ix ~graph ~horizon ~slack));
  let pids = List.init (n + 1) Fun.id in
  same (what "fairness_index")
    ~reference:(Printf.sprintf "%h" (R.fairness_index trace ~instance ~pids))
    ~got:(Printf.sprintf "%h" (M.Index.fairness_index ix ~pids));
  List.iter
    (fun pid ->
      let what name = what (Printf.sprintf "%s p%d" name pid) in
      same (what "eat_count")
        ~reference:(string_of_int (R.eat_count trace ~instance ~pid))
        ~got:(string_of_int (M.eat_count trace ~instance ~pid));
      same (what "eating_starts")
        ~reference:(str_ints (R.eating_starts trace ~instance ~pid))
        ~got:(str_ints (Array.to_list (M.Index.eating_starts ix ~pid)));
      same (what "live_eating_intervals")
        ~reference:(str_list str_pair (R.live_eating_intervals trace ~instance ~pid ~horizon))
        ~got:(str_list str_pair (M.Index.live_eating_intervals ix ~pid ~horizon));
      let segments = ref [] in
      M.Index.iter_segments ix ~pid ~horizon (fun a b ph -> segments := (a, b, ph) :: !segments);
      let str_segment (a, b, ph) = Printf.sprintf "%s[%d,%d)" (Types.phase_to_string ph) a b in
      same (what "segments")
        ~reference:
          (str_list str_segment (Trace_reference.phase_timeline trace ~instance ~pid ~horizon))
        ~got:(str_list str_segment (List.rev !segments)))
    pids

(* Obs.Span's rendering of the index against the old streaming fold. *)
let compare_spans ~ctx trace ~horizon =
  same
    (Printf.sprintf "%s: spans (horizon %d)" ctx horizon)
    ~reference:(str_list str_span (Span_reference.spans trace ~horizon))
    ~got:(str_list str_span (Obs.Span.spans trace ~horizon))

(* The run's own horizon and slack, then horizons cutting the trace short
   and running past its end, with a zero slack. *)
let compare_horizons ~ctx trace ~instance ~graph ~horizon =
  List.iter
    (fun (horizon, slack) ->
      compare_all ~ctx trace ~instance ~graph ~horizon ~slack;
      compare_spans ~ctx trace ~horizon)
    [ (horizon, horizon / 3); (horizon / 2, 0); (horizon + 7, horizon / 5) ]

(* Check.Runner's checks and meal count against the reference monitors
   applied as the runner applied the old ones. *)
let compare_runner ~ctx ?drive ~registry (c : Check.Config.t) =
  let outcome, trace = Check.Runner.run_traced ?drive ~registry c in
  let instance = Check.Runner.instance and graph = Check.Config.graph c in
  let n = Graphs.Conflict_graph.n graph and horizon = c.Check.Config.horizon in
  let reference =
    [
      Obs.Report.of_verdict "wait_freedom"
        (R.wait_freedom trace ~instance ~n ~horizon ~slack:(horizon / 3));
      Obs.Report.of_verdict "eventual_weak_exclusion"
        (R.eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from:(horizon / 2));
      Obs.Report.of_verdict "exiting_finite"
        (R.exiting_finite trace ~instance ~n ~horizon ~slack:(horizon / 3));
    ]
  in
  let str_checks cs =
    str_list
      (fun (ch : Obs.Report.check) ->
        Printf.sprintf "%s:%b:%s" ch.Obs.Report.name ch.Obs.Report.holds ch.Obs.Report.detail)
      cs
  in
  same (ctx ^ ": runner checks") ~reference:(str_checks reference)
    ~got:(str_checks outcome.Check.Runner.checks);
  let meals = List.fold_left ( + ) 0 (List.init n (fun pid -> R.eat_count trace ~instance ~pid)) in
  same (ctx ^ ": runner meals") ~reference:(string_of_int meals)
    ~got:(string_of_int outcome.Check.Runner.meals);
  compare_horizons ~ctx trace ~instance ~graph ~horizon;
  outcome

(* A reduction run (an [extract-<box>] config): the comparisons of
   compare_horizons on each DX instance of every pair, and the runner's
   meal count against the reference's over those instances. *)
let compare_extraction ~ctx ?drive (c : Check.Config.t) =
  let outcome, trace = Check.Runner.run_traced ?drive ~registry:Check.Runner.default_registry c in
  let n = Check.Config.n_procs c and meals = ref 0 in
  for w = 0 to n - 1 do
    for s = 0 to n - 1 do
      if w <> s then
        for i = 0 to 1 do
          let instance = Printf.sprintf "dx%d[%d>%d]" i w s in
          let graph = Graphs.Conflict_graph.of_edges ~n [ (w, s) ] in
          compare_horizons ~ctx:(ctx ^ " " ^ instance) trace ~instance ~graph
            ~horizon:c.Check.Config.horizon;
          meals := !meals + R.eat_count trace ~instance ~pid:w + R.eat_count trace ~instance ~pid:s
        done
    done
  done;
  same (ctx ^ ": runner meals") ~reference:(string_of_int !meals)
    ~got:(string_of_int outcome.Check.Runner.meals)

(* ------------------------------------------------------------------ *)
(* Inputs *)

let corpus_files () =
  match Sys.readdir "corpus" with
  | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat "corpus")
  | exception Sys_error _ -> []

let test_corpus () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus present" true (List.length files >= 5);
  List.iter
    (fun path ->
      let r = Check.Repro.load ~path in
      let drive = Adversary.replayer ~len:r.Check.Repro.len ~overrides:r.Check.Repro.overrides in
      let c = r.Check.Repro.config in
      if String.starts_with ~prefix:"extract-" c.Check.Config.algo then
        compare_extraction ~ctx:path ~drive c
      else ignore (compare_runner ~ctx:path ~drive ~registry:Broken_dining.registry c))
    files

(* wf on a ◇P module that suspects every other process forever: the
   diners never trust a neighbour, so their eating overlaps and ◇WX
   fails with many violations. *)
let paranoid_algo = "wf-paranoid"

let paranoid_builder engine ~graph ~instance ~eat_ticks =
  let n = Graphs.Conflict_graph.n graph in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let others = Types.Pidset.remove pid (Types.pidset_of_list (List.init n Fun.id)) in
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance ~graph ~suspects:(fun () -> others) ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let registry = (paranoid_algo, paranoid_builder) :: Broken_dining.registry
let algos = List.map fst registry

(* A third of the configs crash a majority of the processes, some at
   tick 0, whatever the algorithm tolerates. *)
let crash_heavy rng (c : Check.Config.t) =
  let n = Check.Config.n_procs c in
  let victims = Array.init n Fun.id in
  Prng.shuffle rng victims;
  let crashes =
    List.init ((n / 2) + 1) (fun i ->
        let at = if Prng.bool rng then 0 else Prng.int rng ~bound:c.Check.Config.horizon in
        (victims.(i), at))
    |> List.sort compare
  in
  { c with Check.Config.crashes }

let random_configs = 510

let test_random_configs () =
  let rng = Prng.create 0xD1FFL in
  let failing = ref 0 and crashed = ref 0 and paranoid = ref 0 and dropfork = ref 0 in
  for i = 1 to random_configs do
    let c =
      Check.Config.generate rng ~algos ~families:Check.Config.all_families ~max_horizon:1500
    in
    let c = if i mod 3 = 0 then crash_heavy rng c else c in
    let ctx = Printf.sprintf "config %d (%s)" i (Check.Config.describe c) in
    let outcome = compare_runner ~ctx ~registry c in
    if outcome.Check.Runner.failed <> [] then incr failing;
    if c.Check.Config.crashes <> [] then incr crashed;
    if String.equal c.Check.Config.algo paranoid_algo then incr paranoid;
    if String.equal c.Check.Config.algo Broken_dining.algo then incr dropfork
  done;
  (* The mix really exercises the violation paths. *)
  Alcotest.(check bool) "some runs violate a check" true (!failing >= 50);
  Alcotest.(check bool) "many runs crash processes" true (!crashed >= random_configs / 3);
  Alcotest.(check bool) "paranoid and dropfork variants drawn" true
    (!paranoid >= 30 && !dropfork >= 30)

(* Hand-made traces at the edges of the segment rule. *)
let hand_made () =
  let tr = Trace.create () in
  let trans pid at from_ to_ =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_; to_ })
  in
  let crash pid at = Trace.append tr ~at (Trace.Crash { pid }) in
  (* p2 crashes at tick 0, before anything else happens. *)
  crash 2 0;
  (* p0: several transitions in one tick (a zero-length hunger and a
     zero-length meal), then a meal overlapping p1's. *)
  trans 0 1 Types.Thinking Types.Hungry;
  trans 0 3 Types.Hungry Types.Eating;
  trans 0 3 Types.Eating Types.Exiting;
  trans 0 3 Types.Exiting Types.Thinking;
  trans 0 3 Types.Thinking Types.Hungry;
  trans 0 5 Types.Hungry Types.Eating;
  trans 1 4 Types.Thinking Types.Hungry;
  trans 1 6 Types.Hungry Types.Eating;
  trans 0 9 Types.Eating Types.Exiting;
  trans 0 10 Types.Exiting Types.Thinking;
  (* p1 crashes during its meal. *)
  crash 1 8;
  trans 1 12 Types.Eating Types.Exiting;
  (* p3: hungry from 11, eats exactly at the horizon tick 40 — the
     hungry segment that ends there still reaches the horizon. *)
  trans 3 11 Types.Thinking Types.Hungry;
  trans 3 40 Types.Hungry Types.Eating;
  (* p0 again: hungry from 15 and still hungry at the horizon; a second
     crash record of p1 is ignored. *)
  trans 0 15 Types.Thinking Types.Hungry;
  crash 1 20;
  (* p2 "eats" long after its crash at tick 0: no live interval. *)
  trans 2 30 Types.Thinking Types.Hungry;
  trans 2 31 Types.Hungry Types.Eating;
  trans 2 33 Types.Eating Types.Exiting;
  (* p4: exiting from 25, then events past the horizon. *)
  trans 4 20 Types.Thinking Types.Hungry;
  trans 4 22 Types.Hungry Types.Eating;
  trans 4 25 Types.Eating Types.Exiting;
  trans 4 45 Types.Exiting Types.Thinking;
  trans 4 47 Types.Thinking Types.Hungry;
  (* Another instance's transitions are not this instance's. *)
  Trace.append tr ~at:30
    (Trace.Transition { instance = "j"; pid = 3; from_ = Types.Thinking; to_ = Types.Eating });
  tr

let test_hand_made () =
  let tr = hand_made () in
  List.iter
    (fun graph ->
      List.iter
        (fun (horizon, slack) ->
          compare_all ~ctx:"hand-made" tr ~instance:"i" ~graph ~horizon ~slack;
          compare_spans ~ctx:"hand-made" tr ~horizon)
        [ (40, 10); (40, 0); (41, 10); (39, 0); (12, 3); (60, 20); (3, 0) ])
    [ Graphs.Conflict_graph.clique ~n:5; Graphs.Conflict_graph.ring ~n:5; Graphs.Conflict_graph.star ~n:5 ];
  (* The edge cases do what the paper's properties say. *)
  let graph = Graphs.Conflict_graph.clique ~n:5 in
  let wf = M.wait_freedom tr ~instance:"i" ~n:5 ~horizon:40 ~slack:10 in
  Alcotest.(check (list string)) "hungry until the horizon tick counts as starving"
    [
      "[i] correct p3 hungry since t=11 never ate (horizon 40)";
      "[i] correct p0 hungry since t=15 never ate (horizon 40)";
    ]
    wf.Detectors.Properties.details;
  let ix = M.Index.build tr ~instance:"i" in
  Alcotest.(check (list (pair int int)))
    "a crash cuts the meal it interrupts" [ (6, 8) ]
    (M.Index.live_eating_intervals ix ~pid:1 ~horizon:40);
  Alcotest.(check (list (pair int int)))
    "zero-length meals are no interval" [ (5, 9); (40, 41) ]
    (M.Index.live_eating_intervals ix ~pid:0 ~horizon:41
    @ M.Index.live_eating_intervals ix ~pid:3 ~horizon:41);
  Alcotest.(check int) "zero-length meals still count" 2 (M.eat_count tr ~instance:"i" ~pid:0);
  Alcotest.(check (list (pair int int)))
    "meals after a crash are not live" []
    (M.Index.live_eating_intervals ix ~pid:2 ~horizon:40);
  Alcotest.(check (list string)) "one overlap, cut by p1's crash"
    [ "6:0-1" ]
    (List.map
       (fun (v : M.violation) -> Printf.sprintf "%d:%d-%d" v.M.at v.M.p v.M.q)
       (M.Index.exclusion_violations ix ~graph ~horizon:40))

(* A diner whose transitions go back in time is refused, not silently
   mis-merged. *)
let test_time_order_required () =
  let tr = Trace.create () in
  Trace.append tr ~at:5
    (Trace.Transition { instance = "i"; pid = 0; from_ = Types.Thinking; to_ = Types.Hungry });
  Trace.append tr ~at:4
    (Trace.Transition { instance = "i"; pid = 0; from_ = Types.Hungry; to_ = Types.Eating });
  match M.eat_count tr ~instance:"i" ~pid:0 with
  | _ -> Alcotest.fail "out-of-order transitions accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "monitor"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus" `Quick test_corpus;
          Alcotest.test_case "random configs" `Slow test_random_configs;
          Alcotest.test_case "hand-made traces" `Quick test_hand_made;
          Alcotest.test_case "time order required" `Quick test_time_order_required;
        ] );
    ]
