(* Bounded exhaustive model checking (lib/mc): cross-validation against
   the random fuzzer, partial-order-reduction soundness, counterexample
   replay, and jobs-invariance of the canonical report.

   Every pinned integer below (schedule counts, prune counts) is a pure
   function of the explored config and the engine — like the digest pins
   in test_check.ml, they only move when the engine's query pattern, the
   deployed algorithms or the explorer's enumeration order change.
   Regenerate by printing the stats of a run and update the constant. *)

let registry = Broken_dining.registry

let mc_config ?(algo = "wf") ?(horizon = 12) ?(delta = 2) ?(phi = 1) ?(eat_ticks = 1)
    ?(crashes = []) () =
  {
    Check.Config.algo;
    topology = Check.Config.Pair;
    adversary = Check.Config.Dls { delta; phi };
    crashes;
    handicap = None;
    horizon;
    eat_ticks;
    seed = 0x5EEDL;
  }

let explore ?(por = true) ?(jobs = 1) ?(collect = false) ?(crash_budget = 0) base =
  Mc.Explore.run ~registry
    {
      (Mc.Explore.default ~base) with
      Mc.Explore.por;
      jobs;
      collect_schedules = collect;
      crash_budget;
      max_schedules = 500_000;
    }

(* ------------------------------------------------------------------ *)
(* Enumeration basics *)

(* delta = 1 and phi = 1 leave the adversary no choices at all: the tree
   is a single (synchronous) schedule. *)
let test_synchronous_is_single_schedule () =
  let r = explore (mc_config ~delta:1 ~phi:1 ()) in
  Alcotest.(check int) "one schedule" 1 r.Mc.Explore.stats.Mc.Explore.schedules;
  Alcotest.(check int) "no violations" 0 r.Mc.Explore.stats.Mc.Explore.violation_count;
  Alcotest.(check int) "nothing pruned" 0 r.Mc.Explore.stats.Mc.Explore.pruned

(* The flagship green instance: the real WF-◇WX diner on a pair, delays
   in {1, 2}, every step forced — 256 delay schedules, all of which keep
   the Section 4 properties. *)
let pinned_wf_green_schedules = 256

let test_wf_green_instance () =
  let r = explore (mc_config ()) in
  let s = r.Mc.Explore.stats in
  Alcotest.(check int) "schedule count pinned" pinned_wf_green_schedules
    s.Mc.Explore.schedules;
  Alcotest.(check int) "no violations" 0 s.Mc.Explore.violation_count;
  Alcotest.(check bool) "not truncated" false s.Mc.Explore.truncated

(* One engine run, one deployment: the explorer reuses one run plan per
   search, but every run, complete schedule or one the root split
   abandons, calls the registry builder once, so perfbench's mc workload
   can count builder entries as engine runs. The default split abandons
   the 2 runs that reach its depth before their run ends. *)
let test_one_builder_call_per_run () =
  let calls = ref 0 in
  let counting =
    List.map
      (fun (name, build) ->
        ( name,
          if String.equal name "wf" then (fun engine ~graph ~instance ~eat_ticks ->
            incr calls;
            build engine ~graph ~instance ~eat_ticks)
          else build ))
      registry
  in
  let calls_at split_depth =
    calls := 0;
    let r =
      Mc.Explore.run ~registry:counting
        { (Mc.Explore.default ~base:(mc_config ())) with Mc.Explore.split_depth }
    in
    Alcotest.(check int) "schedule count pinned" pinned_wf_green_schedules
      r.Mc.Explore.stats.Mc.Explore.schedules;
    !calls
  in
  Alcotest.(check int) "unsplit: one builder call per schedule" pinned_wf_green_schedules
    (calls_at 0);
  Alcotest.(check int) "default split: the schedules and the split's 2 abandoned runs"
    (pinned_wf_green_schedules + 2)
    (calls_at (Mc.Explore.default ~base:(mc_config ())).Mc.Explore.split_depth)

(* ------------------------------------------------------------------ *)
(* Cross-validation: the exhaustive schedule set (no reduction) is a
   superset of any random DLS tape for the same instance. *)

(* Compact injective rendering of a decision tape ("S1.D2.S0..."), for
   set membership and digests. *)
let schedule_key decisions =
  let buf = Buffer.create (4 * Array.length decisions) in
  Array.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf '.';
      match d with
      | Dsim.Adversary.Step s -> Buffer.add_string buf (if s then "S1" else "S0")
      | Dsim.Adversary.Delay d ->
          Buffer.add_char buf 'D';
          Buffer.add_string buf (string_of_int d))
    decisions;
  Buffer.contents buf

(* One run of the config under a uniformly random DLS schedule drawn from
   [rng] (the test's own stream, not the engine's), returning its full
   decision tape normalised as the exhaustive enumeration records it:
   forced steps as [Step true]. *)
let random_schedule (cfg : Check.Config.t) rng =
  let delta, phi =
    match cfg.Check.Config.adversary with
    | Check.Config.Dls { delta; phi } -> (delta, phi)
    | _ -> Alcotest.fail "random_schedule needs a Dls config"
  in
  let last_step = Array.make (Check.Config.n_procs cfg) 0 in
  let chosen = ref [] in
  let delay ~now:_ ~src:_ ~dst:_ _ =
    let d = Dsim.Prng.int_in rng ~lo:1 ~hi:delta in
    chosen := Dsim.Adversary.Delay d :: !chosen;
    d
  in
  let step ~now pid _ =
    let forced = now - last_step.(pid) >= phi in
    let s = forced || Dsim.Prng.chance rng ~p:0.5 in
    if s then last_step.(pid) <- now;
    chosen := Dsim.Adversary.Step s :: !chosen;
    s
  in
  let (_ : Check.Runner.outcome) = Check.Runner.run ~drive:(delay, step) ~registry cfg in
  Array.of_list (List.rev !chosen)

let step_instance () = mc_config ~algo:"hygienic" ~horizon:10 ~delta:1 ~phi:2 ()
let pinned_step_instance_schedules = 20736

let test_exhaustive_superset_of_random_tapes () =
  let base = step_instance () in
  let r = explore ~por:false ~collect:true base in
  Alcotest.(check int) "schedule count pinned" pinned_step_instance_schedules
    r.Mc.Explore.stats.Mc.Explore.schedules;
  Alcotest.(check int) "collected every schedule" pinned_step_instance_schedules
    (List.length r.Mc.Explore.schedules);
  let seen = Hashtbl.create 8192 in
  List.iter (fun d -> Hashtbl.replace seen (schedule_key d) ()) r.Mc.Explore.schedules;
  for i = 0 to 49 do
    let rng = Dsim.Prng.derive 0xF00DL ~index:i in
    let tape = random_schedule base rng in
    Alcotest.(check bool)
      (Printf.sprintf "random tape %d is an enumerated schedule" i)
      true
      (Hashtbl.mem seen (schedule_key tape))
  done

(* The enumeration order, not only the count: the digest of the step
   instance's schedules, one key a line, in the order [collect_schedules]
   returns them. It moves only when the engine's query pattern or the
   explorer's DFS order changes, and the parallel frontier must not move
   it. *)
let pinned_step_instance_digest = "925c93719b3f902fa0c75f0db735ba51"

let test_enumeration_order_pinned () =
  List.iter
    (fun jobs ->
      let r = explore ~por:false ~collect:true ~jobs (step_instance ()) in
      Alcotest.(check string)
        (Printf.sprintf "schedule order digest at jobs=%d" jobs)
        pinned_step_instance_digest
        (Digest.to_hex
           (Digest.string (String.concat "\n" (List.map schedule_key r.Mc.Explore.schedules)))))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: pinned reduction counts, and the reduced
   exploration reaches the same verdicts — a violation exists iff the
   full exploration finds one, for the same set of failed properties. *)

let pinned_por_instance = ("hygienic", 8, 1, 3)
let pinned_full_schedules = 22201
let pinned_full_violations = 22041
let pinned_por_schedules = 4530
let pinned_por_pruned = 1048
let pinned_por_violations = 4454
let pinned_failed_checks = [ "exiting_finite"; "wait_freedom" ]

let test_por_counts_pinned_and_verdicts_equal () =
  let algo, horizon, delta, phi = pinned_por_instance in
  let base = mc_config ~algo ~horizon ~delta ~phi () in
  let full = explore ~por:false base in
  let por = explore ~por:true base in
  Alcotest.(check int) "full schedule count pinned" pinned_full_schedules
    full.Mc.Explore.stats.Mc.Explore.schedules;
  Alcotest.(check int) "full violation count pinned" pinned_full_violations
    full.Mc.Explore.stats.Mc.Explore.violation_count;
  Alcotest.(check int) "nothing pruned without POR" 0
    full.Mc.Explore.stats.Mc.Explore.pruned;
  Alcotest.(check int) "reduced schedule count pinned" pinned_por_schedules
    por.Mc.Explore.stats.Mc.Explore.schedules;
  Alcotest.(check int) "pruned branch count pinned" pinned_por_pruned
    por.Mc.Explore.stats.Mc.Explore.pruned;
  Alcotest.(check int) "reduced violation count pinned" pinned_por_violations
    por.Mc.Explore.stats.Mc.Explore.violation_count;
  Alcotest.(check (list string)) "failed-property set pinned" pinned_failed_checks
    full.Mc.Explore.failed_checks;
  Alcotest.(check (list string)) "reduction preserves the failed-property set"
    full.Mc.Explore.failed_checks por.Mc.Explore.failed_checks

(* ------------------------------------------------------------------ *)
(* Seeded broken variant: wf-dropfork starves on the very first (all-
   friendliest) schedule — the bounded DFS counterexample is already
   minimal — and the emitted fuzz-repro/1 artifact replays
   bit-identically through the ordinary replay machinery. *)

let test_dropfork_counterexample_and_replay () =
  let base = mc_config ~algo:Broken_dining.algo () in
  let r = explore base in
  let s = r.Mc.Explore.stats in
  Alcotest.(check int) "same schedule count as the green instance"
    pinned_wf_green_schedules s.Mc.Explore.schedules;
  Alcotest.(check int) "every schedule starves" pinned_wf_green_schedules
    s.Mc.Explore.violation_count;
  (* Every violation is counted, but only the first 16 in enumeration
     order are kept as artifacts, at any job count. *)
  List.iter
    (fun jobs ->
      let r = if jobs = 1 then r else explore ~jobs base in
      Alcotest.(check int)
        (Printf.sprintf "every violation counted at jobs=%d" jobs)
        pinned_wf_green_schedules r.Mc.Explore.stats.Mc.Explore.violation_count;
      Alcotest.(check (list int))
        (Printf.sprintf "schedules 0-15 kept at jobs=%d" jobs)
        (List.init 16 Fun.id)
        (List.map (fun (v : Mc.Explore.violation) -> v.Mc.Explore.schedule_index)
           r.Mc.Explore.violations))
    [ 1; 2 ];
  let first =
    match r.Mc.Explore.violations with
    | v :: _ -> v
    | [] -> Alcotest.fail "no counterexample found"
  in
  Alcotest.(check int) "first counterexample is the first schedule" 0
    first.Mc.Explore.schedule_index;
  let repro = first.Mc.Explore.repro in
  Alcotest.(check bool) "wait_freedom is among the failures" true
    (List.exists
       (fun (c : Obs.Report.check) ->
         (not c.Obs.Report.holds) && String.equal c.Obs.Report.name "wait_freedom")
       repro.Check.Repro.checks);
  (* Artifact round-trip: save validates the digest on load, and replay
     re-executes the run and compares every recorded verdict. *)
  let path = Filename.temp_file "mc-cex" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Check.Repro.save ~path repro;
      let loaded = Check.Repro.load ~path in
      Alcotest.(check string) "digest survives the round trip" (Check.Repro.digest repro)
        (Check.Repro.digest loaded);
      match Check.Repro.replay ~registry loaded with
      | Ok _ -> ()
      | Error mismatches ->
          Alcotest.fail
            ("counterexample did not replay bit-identically: " ^ String.concat "; " mismatches));
  (* Determinism: an independent exploration produces the same artifact. *)
  let again = explore base in
  match again.Mc.Explore.violations with
  | v :: _ ->
      Alcotest.(check string) "counterexample digest is deterministic"
        (Check.Repro.digest repro)
        (Check.Repro.digest v.Mc.Explore.repro)
  | [] -> Alcotest.fail "second exploration found no counterexample"

(* A raising diner under the explorer: every schedule in which a diner
   finishes an exit raises inside the run, and each is a counterexample
   failing [no_exception] (the diner has no exclusion, so a schedule that
   ends before any exit fails eventual weak exclusion instead). The root
   split abandons runs with its own exception, which must still reach the
   explorer: split at depth 4, the search counts what it counts
   unsplit. *)
let test_raising_diner_counterexamples () =
  let base = mc_config ~algo:Broken_dining.exit_hungry ~horizon:8 ~phi:2 () in
  let explore_at split_depth =
    Mc.Explore.run ~registry:Broken_dining.raising_registry
      { (Mc.Explore.default ~base) with Mc.Explore.split_depth; max_schedules = 500_000 }
  in
  let split = explore_at 4 and unsplit = explore_at 0 in
  let stats r = r.Mc.Explore.stats in
  Alcotest.(check bool) "several schedules" true ((stats split).Mc.Explore.schedules > 1);
  Alcotest.(check bool) "counterexamples found" true
    ((stats split).Mc.Explore.violation_count > 0);
  Alcotest.(check bool) "no_exception fails" true
    (List.mem "no_exception" split.Mc.Explore.failed_checks);
  Alcotest.(check int) "the split explores the unsplit schedules"
    (stats unsplit).Mc.Explore.schedules (stats split).Mc.Explore.schedules;
  Alcotest.(check int) "the split finds the unsplit counterexamples"
    (stats unsplit).Mc.Explore.violation_count (stats split).Mc.Explore.violation_count;
  let raised (v : Mc.Explore.violation) =
    List.exists
      (fun (c : Obs.Report.check) -> String.equal c.Obs.Report.name "no_exception")
      v.Mc.Explore.repro.Check.Repro.checks
  in
  match List.find_opt raised split.Mc.Explore.violations with
  | None -> Alcotest.fail "no raising counterexample kept"
  | Some v -> (
      let repro = v.Mc.Explore.repro in
      match Check.Repro.replay ~registry:Broken_dining.raising_registry repro with
      | Ok outcome ->
          Alcotest.(check bool) "the counterexample replays to the same check" true
            (outcome.Check.Runner.checks = repro.Check.Repro.checks)
      | Error mismatches -> Alcotest.fail ("verdict mismatch: " ^ String.concat "; " mismatches))

(* ------------------------------------------------------------------ *)
(* Crash-budget enumeration *)

let test_crash_schedule_enumeration () =
  let base = mc_config ~horizon:10 () in
  let mc =
    { (Mc.Explore.default ~base) with Mc.Explore.crash_budget = 1; crash_grid = 4 }
  in
  Alcotest.(check (list (list (pair int int))))
    "crash schedules enumerate pid/tick grid in canonical order"
    [ []; [ (0, 4) ]; [ (0, 8) ]; [ (1, 4) ]; [ (1, 8) ] ]
    (Mc.Explore.crash_schedules mc);
  let r = Mc.Explore.run ~registry mc in
  Alcotest.(check int) "all five crash schedules explored" 5
    r.Mc.Explore.stats.Mc.Explore.crash_schedules;
  (* Each violation names the crash schedule it came from. *)
  List.iter
    (fun (v : Mc.Explore.violation) ->
      let within = v.Mc.Explore.crash_index >= 0 && v.Mc.Explore.crash_index < 5 in
      Alcotest.(check bool) "violation crash index in range" true within)
    r.Mc.Explore.violations

(* ------------------------------------------------------------------ *)
(* Reports: canonical body, schema dispatch, jobs-invariance *)

let stripped_report ~jobs base =
  let metrics = Obs.Metrics.create () in
  let mc =
    {
      (Mc.Explore.default ~base) with
      Mc.Explore.por = true;
      jobs;
      max_schedules = 500_000;
    }
  in
  let result = Mc.Explore.run ~metrics ~registry mc in
  let report = Mc.Report.make ~config:mc ~result ~metrics () in
  Obs.Json.to_string_pretty (Obs.Report.strip_wall_clock report)

let test_report_jobs_invariance () =
  let algo, horizon, delta, phi = pinned_por_instance in
  let base = mc_config ~algo ~horizon ~delta ~phi () in
  let one = stripped_report ~jobs:1 base in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d report matches jobs=1" jobs)
        one
        (stripped_report ~jobs base))
    [ 2; 7 ]

let test_report_schema_round_trip () =
  let base = mc_config ~algo:Broken_dining.algo ~horizon:10 () in
  let mc = Mc.Explore.default ~base in
  let result = Mc.Explore.run ~registry mc in
  let report = Mc.Report.make ~config:mc ~result () in
  let path = Filename.temp_file "mc-report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Json.write_file ~path report;
      let j =
        match Obs.Report.read_any ~path with
        | `Mc j ->
            Alcotest.(check string) "read_any dispatches to the mc validator"
              (Obs.Json.to_string report) (Obs.Json.to_string j);
            j
        | `Run _ | `Campaign _ -> Alcotest.fail "mc report misdispatched"
      in
      (* The human summary renders without raising. *)
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      Obs.Report.pp_mc_summary fmt j;
      Format.pp_print_flush fmt ();
      Alcotest.(check bool) "summary mentions the schedule count" true
        (Buffer.length buf > 0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mc"
    [
      ( "explore",
        [
          Alcotest.test_case "synchronous instance has one schedule" `Quick
            test_synchronous_is_single_schedule;
          Alcotest.test_case "wf green instance is exhaustively clean" `Quick
            test_wf_green_instance;
          Alcotest.test_case "one builder call per engine run" `Quick
            test_one_builder_call_per_run;
          Alcotest.test_case "exhaustive set covers random tapes" `Slow
            test_exhaustive_superset_of_random_tapes;
          Alcotest.test_case "enumeration order pinned at -j 1/2" `Slow
            test_enumeration_order_pinned;
          Alcotest.test_case "POR counts pinned, verdicts preserved" `Slow
            test_por_counts_pinned_and_verdicts_equal;
          Alcotest.test_case "crash schedules enumerate canonically" `Slow
            test_crash_schedule_enumeration;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "dropfork caught, repro replays bit-identically" `Quick
            test_dropfork_counterexample_and_replay;
          Alcotest.test_case "a raising diner yields counterexamples" `Quick
            test_raising_diner_counterexamples;
        ] );
      ( "report",
        [
          Alcotest.test_case "canonical report is jobs-invariant" `Slow
            test_report_jobs_invariance;
          Alcotest.test_case "dinersim-mc/1 schema round-trips" `Quick
            test_report_schema_round_trip;
        ] );
    ]
