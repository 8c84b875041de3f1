(* Tests for lib/check: the schedule fuzzer, the shrinker, and the
   fuzz-repro/1 artifact round trip.

   The checked-in corpus under test/corpus/ is regenerated with

     DINERSIM_CORPUS_UPDATE=$PWD/test/corpus dune runtest --force

   (the variable must hold an absolute path; the tests then write fresh
   artifacts instead of comparing against the checked-in ones). *)

open Dsim

let update_dir = Sys.getenv_opt "DINERSIM_CORPUS_UPDATE"

(* ------------------------------------------------------------------ *)
(* Generator and codec *)

let test_generator_deterministic () =
  let gen seed =
    Check.Config.generate (Prng.create seed) ~algos:[ "wf"; "kfair"; "hygienic" ]
      ~families:Check.Config.all_families ~max_horizon:4000
  in
  Alcotest.(check bool) "equal seeds, equal configs" true (gen 11L = gen 11L);
  Alcotest.(check bool) "different seeds diverge somewhere" true
    (List.exists (fun s -> gen s <> gen 11L) [ 12L; 13L; 14L; 15L ])

let test_config_json_roundtrip () =
  let rng = Prng.create 0xC0DECL in
  for _ = 1 to 50 do
    let c =
      Check.Config.generate rng
        ~algos:[ "wf"; "kfair"; "fl1"; "hygienic"; "ftme" ]
        ~families:Check.Config.all_families ~max_horizon:6000
    in
    let c' = Check.Config.of_json (Obs.Json.of_string (Obs.Json.to_string (Check.Config.to_json c))) in
    Alcotest.(check bool) "config round-trips through JSON" true (c = c')
  done

let test_crash_tolerance_respected () =
  let rng = Prng.create 0xCAFEL in
  for _ = 1 to 80 do
    let c =
      Check.Config.generate rng ~algos:[ "hygienic"; "fl1" ]
        ~families:Check.Config.all_families ~max_horizon:4000
    in
    Alcotest.(check (list (pair int int))) "no crashes for crash-intolerant algos" [] c.Check.Config.crashes
  done

(* ------------------------------------------------------------------ *)
(* Record / replay identity *)

let some_config () =
  Check.Config.generate (Prng.create 0x51DEL) ~algos:[ "wf" ]
    ~families:Check.Config.all_families ~max_horizon:3000

let test_record_replay_identity () =
  let registry = Check.Runner.default_registry in
  let c = some_config () in
  let drive, recorded = Adversary.recorder () in
  let natural = Check.Runner.run ~drive ~registry c in
  let plain = Check.Runner.run ~registry c in
  Alcotest.(check bool) "recording does not perturb the run" true (natural = plain);
  let d = recorded () in
  let len = Array.length d in
  Alcotest.(check bool) "the run consulted the adversary" true (len > 0);
  let full = List.init len (fun i -> (i, d.(i))) in
  let replayed =
    Check.Runner.run ~drive:(Adversary.replayer ~len ~overrides:full) ~registry c
  in
  Alcotest.(check bool) "full-override replay is bit-identical" true (natural = replayed);
  let zero = Check.Runner.run ~drive:(Adversary.replayer ~len:0 ~overrides:[]) ~registry c in
  Alcotest.(check bool) "len=0 replay falls through to the natural run" true (natural = zero)

(* ------------------------------------------------------------------ *)
(* Repro artifacts *)

let test_repro_roundtrip_and_digest () =
  let c = some_config () in
  let outcome = Check.Runner.run ~registry:Check.Runner.default_registry c in
  let r =
    Check.Repro.v ~config:c ~len:3
      ~overrides:[ (2, Adversary.Delay 4); (0, Adversary.Step false) ]
      ~checks:outcome.Check.Runner.checks
  in
  let r' = Check.Repro.of_json (Obs.Json.of_string (Obs.Json.to_string (Check.Repro.to_json r))) in
  Alcotest.(check bool) "artifact round-trips through JSON" true (r = r');
  Alcotest.(check string) "digest is stable" (Check.Repro.digest r) (Check.Repro.digest r');
  (* Tampering with any body field must be caught by the digest check. *)
  let tampered =
    match Check.Repro.to_json r with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (function
               | "config", cfg -> (
                   match cfg with
                   | Obs.Json.Obj cf ->
                       ( "config",
                         Obs.Json.Obj
                           (List.map
                              (function
                                | "horizon", Obs.Json.Int h -> ("horizon", Obs.Json.Int (h + 1))
                                | f -> f)
                              cf) )
                   | _ -> assert false)
               | f -> f)
             fields)
    | _ -> assert false
  in
  Alcotest.check_raises "tampered artifact is rejected"
    (Failure
       (Printf.sprintf "Repro.of_json: digest mismatch (recorded %s, computed %s)"
          (Check.Repro.digest r)
          (Check.Repro.digest
             { r with Check.Repro.config = { c with Check.Config.horizon = c.Check.Config.horizon + 1 } })))
    (fun () -> ignore (Check.Repro.of_json tampered))

(* ------------------------------------------------------------------ *)
(* Campaigns *)

let test_real_algorithms_pass () =
  let result =
    Check.Campaign.run ~runs:30 ~max_horizon:4000 ~registry:Check.Runner.default_registry
      ~root_seed:0xF5EEDL ()
  in
  Alcotest.(check int) "30 runs executed" 30 result.Check.Campaign.runs;
  Alcotest.(check int) "no violations on the real algorithms" 0
    (List.length result.Check.Campaign.violations)

(* The reduction's targets: the extraction over each correct box passes
   a campaign, with crashes, under all four families. *)
let test_extraction_targets_pass () =
  let result =
    Check.Campaign.run ~runs:30 ~max_horizon:4000
      ~algos:[ "extract-wf"; "extract-kfair"; "extract-ftme" ]
      ~registry:Check.Runner.default_registry ~root_seed:0xF5EEDL ()
  in
  Alcotest.(check int) "30 runs executed" 30 result.Check.Campaign.runs;
  Alcotest.(check (list string)) "no violations on the reduction" []
    (List.map
       (fun (v : Check.Campaign.violation) -> Check.Config.describe v.Check.Campaign.config)
       result.Check.Campaign.violations)

let first_repro (result : Check.Campaign.t) =
  match result.Check.Campaign.violations with
  | { Check.Campaign.repro = Some r; _ } :: _ -> r
  | _ -> Alcotest.fail "campaign produced no shrunk repro"

(* The minimal counterexample of the extract-hygienic campaign below.
   Pinned like pinned_broken_digest: regenerate the corpus (see header)
   and update the constant when the generator, the shrinker, the engine
   or the reduction change. *)
let pinned_hygienic_digest = "8c57583976ca429c70c681716219307e"

(* The reduction over the hygienic box, the negative control: a crashed
   diner keeps its forks, so no watcher can tell it from a slow one. The
   root seed's first violation shrinks to a run on three processes
   whose live pairs still eat, so the replays of its corpus artifact
   (test_corpus_replays here, the differential corpus test in
   test_monitor.ml, `make replay-smoke`) count meals on the pairs' DX
   instances, where a crashed pair eats nothing. *)
let hygienic_campaign ?on_run ~jobs () =
  Check.Campaign.run ~runs:20 ~max_repros:1 ~max_horizon:3000 ~jobs ?on_run
    ~algos:[ "extract-hygienic" ] ~registry:Check.Runner.default_registry ~root_seed:0xBADL ()

let test_hygienic_extraction_fails_on_crashes () =
  let crash_runs = ref 0 in
  let on_run _ (c : Check.Config.t) (o : Check.Runner.outcome) =
    if c.Check.Config.crashes = [] then
      Alcotest.(check (list string)) ("a crash-free run passes: " ^ Check.Config.describe c) []
        o.Check.Runner.failed
    else begin
      incr crash_runs;
      Alcotest.(check bool)
        ("a crash run fails strong completeness: " ^ Check.Config.describe c)
        true
        (List.mem "strong_completeness" o.Check.Runner.failed)
    end
  in
  let result = hygienic_campaign ~on_run ~jobs:1 () in
  Alcotest.(check int) "every crash run is a violation" !crash_runs
    (List.length result.Check.Campaign.violations);
  let r = first_repro result in
  let failed = Check.Runner.failed r.Check.Repro.checks in
  Alcotest.(check bool) "the shrunk repro keeps the run's first failure" true
    (List.mem "strong_completeness" failed);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("failed check is completeness or a lemma: " ^ name) true
        (name = "strong_completeness" || String.starts_with ~prefix:"lemmas." name))
    failed;
  (match update_dir with
  | Some dir ->
      let path = Filename.concat dir "extract-hygienic.json" in
      Check.Repro.save ~path r;
      Printf.printf "corpus: wrote %s (digest %s)\n%!" path (Check.Repro.digest r)
  | None -> ());
  Alcotest.(check string) "minimal counterexample digest is pinned" pinned_hygienic_digest
    (Check.Repro.digest r)

(* The digest of the minimal counterexample that the broken-variant
   campaign shrinks to. Pinned: shrinking is deterministic, so this only
   changes when the generator, the shrinker, or the engine change —
   regenerate the corpus (see header) and update the constant then. *)
let pinned_broken_digest = "b28c01c4190dd28c03fc4e47ee78799d"

let broken_campaign () =
  Check.Campaign.run ~runs:200 ~max_repros:1 ~max_horizon:4000 ~algos:[ Broken_dining.algo ]
    ~registry:Broken_dining.registry ~root_seed:0xB40C0DEL ()

let test_broken_variant_caught_and_shrunk () =
  let result = broken_campaign () in
  Alcotest.(check bool) "the 200-run campaign catches the dropped fork" true
    (result.Check.Campaign.violations <> []);
  let r = first_repro result in
  Alcotest.(check bool) "shrunk repro records a violation" true
    (List.exists (fun (c : Obs.Report.check) -> not c.Obs.Report.holds) r.Check.Repro.checks);
  (* Shrinking must be a pure function of the root seed: a second campaign
     reproduces the same minimal counterexample, digest included. *)
  let again = first_repro (broken_campaign ()) in
  Alcotest.(check string) "two campaigns shrink to the same digest" (Check.Repro.digest r)
    (Check.Repro.digest again);
  (match update_dir with
  | Some dir ->
      let path = Filename.concat dir "broken-wf-dropfork.json" in
      Check.Repro.save ~path r;
      Printf.printf "corpus: wrote %s (digest %s)\n%!" path (Check.Repro.digest r)
  | None -> ());
  Alcotest.(check string) "minimal counterexample digest is pinned" pinned_broken_digest
    (Check.Repro.digest r)

(* A diner that raises is a verdict, not an aborted campaign: a run of
   [exit-hungry] fails [no_exception], whose detail names the tick and
   the refused write, the campaign shrinks the first such run to a repro,
   and the repro replays to the same verdict. *)
let test_raising_diner_is_a_verdict () =
  let result =
    Check.Campaign.run ~runs:20 ~max_repros:1 ~max_horizon:2000
      ~algos:[ Broken_dining.exit_hungry ] ~registry:Broken_dining.raising_registry
      ~root_seed:0xE417L ()
  in
  Alcotest.(check bool) "the campaign completes with violations" true
    (result.Check.Campaign.violations <> []);
  List.iter
    (fun (v : Check.Campaign.violation) ->
      Alcotest.(check (list string)) "a raising run fails no_exception alone" [ "no_exception" ]
        v.Check.Campaign.failed)
    result.Check.Campaign.violations;
  let r = first_repro result in
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  (match r.Check.Repro.checks with
  | [ { Obs.Report.name = "no_exception"; holds = false; detail } ] ->
      Alcotest.(check bool) ("detail names the tick: " ^ detail) true
        (String.length detail > 2 && String.sub detail 0 2 = "t=");
      Alcotest.(check bool) ("detail names the write: " ^ detail) true
        (contains detail "Invalid_argument" && contains detail "exiting -> hungry is off the cycle")
  | _ -> Alcotest.fail "the shrunk repro does not record one failed no_exception check");
  Alcotest.(check bool) "shrunk to a pair" true
    (r.Check.Repro.config.Check.Config.topology = Check.Config.Pair);
  match Check.Repro.replay ~registry:Broken_dining.raising_registry r with
  | Ok outcome ->
      Alcotest.(check bool) "the replay reproduces the check, detail included" true
        (outcome.Check.Runner.checks = r.Check.Repro.checks)
  | Error mismatches -> Alcotest.fail ("verdict mismatch: " ^ String.concat "; " mismatches)

(* The guarded run that Check.Runner, [dinersim dining] and [dinersim
   extract] share: a component's exception is a failed [no_exception]
   check naming the tick the engine stopped at; a healthy run is none. *)
let test_guarded_run () =
  let deploy builder =
    let graph = Graphs.Conflict_graph.pair () in
    let engine = Engine.create ~seed:0x6A4DL ~n:2 ~adversary:(Adversary.synchronous ()) () in
    builder engine ~graph ~instance:"gr" ~eat_ticks:1;
    engine
  in
  let raising = deploy Broken_dining.exit_hungry_builder in
  (match Check.Runner.guarded_run raising ~until:200 with
  | Some { Obs.Report.name = "no_exception"; holds = false; detail } ->
      Alcotest.(check bool) ("the run stopped early: " ^ detail) true (Engine.now raising < 200);
      Alcotest.(check string) "detail names the tick and the exception"
        (Printf.sprintf
           "t=%d: Invalid_argument(\"Dining gr p0: phase exiting -> hungry is off the cycle\")"
           (Engine.now raising))
        detail
  | Some _ -> Alcotest.fail "not one failed no_exception check"
  | None -> Alcotest.fail "the raising run reported no check");
  let healthy = deploy (List.assoc "wf" Check.Runner.default_registry) in
  Alcotest.(check bool) "a healthy run has no check" true
    (Check.Runner.guarded_run healthy ~until:200 = None);
  Alcotest.(check int) "a healthy run reaches the horizon" 200 (Engine.now healthy)

(* ------------------------------------------------------------------ *)
(* Worker pool & jobs-invariance *)

let test_pool_map () =
  let r = Exec.Pool.map ~jobs:4 100 (fun i -> i * i) in
  Alcotest.(check int) "all slots filled" 100 (Array.length r);
  Array.iteri (fun i v -> Alcotest.(check int) "slot holds f(index)" (i * i) v) r;
  Alcotest.(check int) "n = 0 is fine" 0 (Array.length (Exec.Pool.map ~jobs:4 0 Fun.id));
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Exec.Pool.map ~jobs:0 4 Fun.id));
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Pool.map: negative count") (fun () ->
      ignore (Exec.Pool.map ~jobs:2 (-1) Fun.id))

let test_pool_exception_lowest_index () =
  (* Several tasks fail; the caller sees the lowest index's exception, no
     matter which domain hit which failure first. *)
  Alcotest.check_raises "lowest failing index wins" (Failure "boom1") (fun () ->
      ignore
        (Exec.Pool.map ~jobs:4 10 (fun i ->
             if i mod 3 = 1 then failwith (Printf.sprintf "boom%d" i) else i)))

let test_pool_concurrent_raises () =
  (* Two domains raise concurrently; the higher index almost certainly
     fails first in wall time, yet after the joins the caller
     deterministically sees the lowest failing index's exception. *)
  Alcotest.check_raises "lowest index wins the race" (Failure "low") (fun () ->
      ignore
        (Exec.Pool.map ~jobs:3 6 (fun i ->
             if i = 5 then failwith "high"
             else if i = 2 then begin
               for _ = 1 to 10_000 do
                 Domain.cpu_relax ()
               done;
               failwith "low"
             end
             else i)))

let test_pool_jobs_clamped () =
  (* jobs far above n is clamped to n: no spare domains exist, so at most
     n tasks are ever in flight, and results match any other worker
     count. The peak is tracked with fetch_and_add + compare_and_set —
     the composed-get/set idiom the pool contract (and D012) forbids. *)
  let active = Atomic.make 0 and peak = Atomic.make 0 in
  let bump () =
    let now = Atomic.fetch_and_add active 1 + 1 in
    let rec raise_peak () =
      let seen = Atomic.get peak in
      if now > seen && not (Atomic.compare_and_set peak seen now) then raise_peak ()
    in
    raise_peak ()
  in
  let r =
    Exec.Pool.map ~jobs:64 3 (fun i ->
        bump ();
        for _ = 1 to 1_000 do
          Domain.cpu_relax ()
        done;
        Atomic.decr active;
        i * 10)
  in
  Alcotest.(check (list int)) "results index-ordered" [ 0; 10; 20 ] (Array.to_list r);
  Alcotest.(check bool) "in-flight tasks never exceed n" true (Atomic.get peak <= 3);
  Alcotest.(check int) "n = 1 under huge jobs" 1 (Array.length (Exec.Pool.map ~jobs:64 1 Fun.id));
  (* The exception contract holds in the clamped regime too. *)
  Alcotest.check_raises "lowest index re-raised when jobs > n" (Failure "boom0") (fun () ->
      ignore (Exec.Pool.map ~jobs:32 2 (fun i -> failwith (Printf.sprintf "boom%d" i))))

let test_campaign_jobs_invariance () =
  (* The acceptance property of the parallel campaign: the summary's
     canonical body — verdicts, entries, shrunk digests, merged metrics —
     is byte-identical for every worker count. Runs over the broken
     variant and the reduction over the hygienic box, so the
     violation/shrink paths are exercised on both kinds of target. *)
  let summary jobs =
    let broken =
      Check.Campaign.run ~runs:60 ~max_repros:1 ~max_horizon:3000 ~jobs
        ~algos:[ Broken_dining.algo ] ~registry:Broken_dining.registry ~root_seed:0xB40C0DEL
        ()
    in
    List.map
      (fun result ->
        Obs.Json.to_string_pretty
          (Obs.Report.strip_wall_clock (Check.Campaign.summary ~cmd:"fuzz" result)))
      [ broken; hygienic_campaign ~jobs () ]
    |> String.concat "\n"
  in
  let reference = summary 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d canonical summary matches jobs=1" jobs)
        reference (summary jobs))
    [ 2; 7 ]

(* ------------------------------------------------------------------ *)
(* Schedule-coverage signatures *)

let test_coverage_jobs_invariance () =
  (* The campaign's union bitmap and growth curve are canonical: byte- and
     element-identical for every worker count, because per-run signatures
     are pure functions of the config and the union is merged in run-index
     order. *)
  let coverage_of jobs =
    let r =
      Check.Campaign.run ~runs:20 ~max_horizon:3000 ~jobs
        ~registry:Check.Runner.default_registry ~root_seed:0xC0FFEEL ()
    in
    (Obs.Coverage.to_hex r.Check.Campaign.coverage, r.Check.Campaign.coverage_growth)
  in
  let hex1, growth1 = coverage_of 1 in
  Alcotest.(check int) "one growth point per run" 20 (List.length growth1);
  Alcotest.(check bool) "growth curve is monotone non-decreasing" true
    (fst
       (List.fold_left (fun (ok, prev) g -> (ok && g >= prev, g)) (true, 0) growth1));
  Alcotest.(check bool) "campaign accumulated edges" true
    (List.fold_left max 0 growth1 > 0);
  List.iter
    (fun jobs ->
      let hex, growth = coverage_of jobs in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d union bitmap matches jobs=1" jobs)
        hex1 hex;
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d growth curve matches jobs=1" jobs)
        growth1 growth)
    [ 2; 7 ]

(* Nudge exactly one adversary knob, preserving the family when it has
   one. *)
let bump_adversary = function
  | Check.Config.Sync -> Check.Config.Async { max_delay = 4; step_prob_pct = 70 }
  | Check.Config.Async a -> Check.Config.Async { a with max_delay = a.max_delay + 3 }
  | Check.Config.Partial p -> Check.Config.Partial { p with gst = p.gst + 500 }
  | Check.Config.Bursty b -> Check.Config.Bursty { b with storm_delay = b.storm_delay + 3 }
  | Check.Config.Dls d -> Check.Config.Dls { d with delta = d.delta + 3 }

let test_coverage_knob_sensitivity () =
  let registry = Check.Runner.default_registry in
  let c = some_config () in
  let base = (Check.Runner.run ~registry c).Check.Runner.coverage in
  let same = (Check.Runner.run ~registry c).Check.Runner.coverage in
  Alcotest.(check bool) "same config, identical signature" true
    (Obs.Coverage.equal base same);
  let tweaked = { c with Check.Config.adversary = bump_adversary c.Check.Config.adversary } in
  let cov = (Check.Runner.run ~registry tweaked).Check.Runner.coverage in
  Alcotest.(check bool) "changed adversary knob changes the signature" false
    (Obs.Coverage.equal base cov);
  Alcotest.(check bool) "the changed knob flips at least one edge bucket" true
    (Obs.Coverage.new_edges ~seen:base cov >= 1)

(* Check.Runner computes a run's signature from its retained trace after
   the run. It must equal, bit for bit, that of a collector subscribed
   before the deployment: for every registry algorithm under each fuzzed
   family with a crash, and for a run an exception cuts short. *)
let test_post_hoc_coverage_equals_subscriber () =
  let subscribed = ref [] in
  let registry =
    List.map
      (fun (name, build) ->
        ( name,
          fun engine ~graph ~instance ~eat_ticks ->
            let cov = Obs.Coverage.create () in
            Obs.Coverage.attach cov (Engine.trace engine);
            subscribed := cov :: !subscribed;
            build engine ~graph ~instance ~eat_ticks ))
      Broken_dining.raising_registry
  in
  let same label (c : Check.Config.t) =
    subscribed := [];
    let outcome = Check.Runner.run ~registry c in
    match !subscribed with
    | [ cov ] ->
        Alcotest.(check string) (label ^ ": post-hoc signature equals the subscriber's")
          (Obs.Coverage.to_hex (Obs.Coverage.snapshot cov))
          (Obs.Coverage.to_hex outcome.Check.Runner.coverage);
        outcome
    | l -> Alcotest.failf "%s: %d deployments in one run" label (List.length l)
  in
  List.iteri
    (fun i (algo, _) ->
      List.iter
        (fun family ->
          let c =
            Check.Config.generate
              (Prng.derive 0xC0BEL ~index:i)
              ~algos:[ algo ] ~families:[ family ] ~max_horizon:2000
          in
          let c = { c with Check.Config.crashes = [ (1, c.Check.Config.horizon / 3) ] } in
          ignore (same (Check.Config.describe c) c))
        Check.Config.all_families)
    Check.Runner.default_registry;
  let c =
    Check.Config.generate (Prng.create 0xE417L) ~algos:[ Broken_dining.exit_hungry ]
      ~families:[ `Sync ] ~max_horizon:2000
  in
  let outcome = same "exit-hungry" c in
  Alcotest.(check (list string)) "the exit-hungry run is cut short" [ "no_exception" ]
    outcome.Check.Runner.failed;
  Alcotest.(check bool) "its signature is not empty" true
    (Obs.Coverage.edges outcome.Check.Runner.coverage > 0)

(* The coverage digest of one corpus artifact, replayed with its recorded
   decision overrides. Pinned like pinned_broken_digest above: it only
   changes when the engine, the trace vocabulary or the coverage hash
   change — regenerate the corpus and update the constant then. *)
let pinned_sync_coverage_digest = "8e56ee1a311381cdbe65d1873832b171"

let test_corpus_coverage_digest_pinned () =
  (* Under `dune runtest` the corpus is a sandbox dep next to the binary;
     fall back to the source path for manual `dune exec` from the root. *)
  let path =
    if Sys.file_exists "corpus/family-sync.json" then "corpus/family-sync.json"
    else "test/corpus/family-sync.json"
  in
  let r = Check.Repro.load ~path in
  let outcome =
    Check.Runner.run
      ~drive:(Adversary.replayer ~len:r.Check.Repro.len ~overrides:r.Check.Repro.overrides)
      ~registry:Check.Runner.default_registry r.Check.Repro.config
  in
  let digest = Obs.Coverage.digest outcome.Check.Runner.coverage in
  (match update_dir with
  | Some _ -> Printf.printf "corpus: family-sync coverage digest %s\n%!" digest
  | None -> ());
  Alcotest.(check string) "family-sync schedule-coverage digest is pinned"
    pinned_sync_coverage_digest digest

(* The canonical body (wall_clock stripped) of `dinersim fuzz --runs 100
   --seed 0xF5EED`'s summary: verdicts, merged Instrument metrics and the
   coverage block, so both trace observers are pinned byte for byte.
   Changes only with the engine, the algorithms, the trace vocabulary, the
   metric set or the coverage hash. *)
let pinned_campaign_summary_digest = "3fb50bedc9ff1dd85f12d530ae676906"

let test_campaign_summary_digest_pinned () =
  let result =
    Check.Campaign.run ~runs:100 ~jobs:1 ~registry:Check.Runner.default_registry
      ~root_seed:0xF5EEDL ()
  in
  let body =
    Obs.Json.to_string (Obs.Report.strip_wall_clock (Check.Campaign.summary ~cmd:"fuzz" result))
  in
  Alcotest.(check string) "fuzz campaign summary digest is pinned" pinned_campaign_summary_digest
    (Digest.to_hex (Digest.string body))

(* ------------------------------------------------------------------ *)
(* Corpus *)

let family_seed = function
  | `Sync -> 0xC0001L
  | `Async -> 0xC0002L
  | `Partial -> 0xC0003L
  | `Bursty -> 0xC0004L
  | `Dls -> 0xC0005L

let test_family_corpus_update () =
  match update_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun fam ->
          let saved = ref None in
          let result =
            Check.Campaign.run ~runs:1 ~families:[ fam ]
              ~max_horizon:3000
              ~corpus:(fun _ r -> saved := Some r)
              ~registry:Check.Runner.default_registry ~root_seed:(family_seed fam) ()
          in
          Alcotest.(check int)
            (Printf.sprintf "family %s corpus run passes" (Check.Config.family_to_string fam))
            0
            (List.length result.Check.Campaign.violations);
          match !saved with
          | Some r ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "family-%s.json" (Check.Config.family_to_string fam))
              in
              Check.Repro.save ~path r;
              Printf.printf "corpus: wrote %s (digest %s)\n%!" path (Check.Repro.digest r)
          | None -> Alcotest.fail "corpus callback not invoked")
        Check.Config.all_families

let corpus_files () =
  match Sys.readdir "corpus" with
  | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat "corpus")
  | exception Sys_error _ -> []

let test_corpus_replays () =
  let files = corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus present (found %d artifacts)" (List.length files))
    true
    (List.length files >= 5);
  List.iter
    (fun path ->
      let r = Check.Repro.load ~path in
      match Check.Repro.replay ~registry:Broken_dining.registry r with
      | Ok _ -> ()
      | Error mismatches ->
          Alcotest.fail
            (Printf.sprintf "%s: verdict mismatch: %s" path (String.concat "; " mismatches)))
    files

let () =
  Alcotest.run "check"
    [
      ( "config",
        [
          Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "json roundtrip" `Quick test_config_json_roundtrip;
          Alcotest.test_case "crash tolerance respected" `Quick test_crash_tolerance_respected;
        ] );
      ( "replay",
        [
          Alcotest.test_case "record/replay identity" `Quick test_record_replay_identity;
          Alcotest.test_case "repro roundtrip + digest" `Quick test_repro_roundtrip_and_digest;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "real algorithms pass" `Slow test_real_algorithms_pass;
          Alcotest.test_case "extraction targets pass" `Slow test_extraction_targets_pass;
          Alcotest.test_case "extract-hygienic fails on crashes, shrunk" `Slow
            test_hygienic_extraction_fails_on_crashes;
          Alcotest.test_case "broken variant caught, shrink deterministic" `Slow
            test_broken_variant_caught_and_shrunk;
          Alcotest.test_case "a raising diner is a shrunk verdict" `Quick
            test_raising_diner_is_a_verdict;
          Alcotest.test_case "guarded run reports an exception" `Quick test_guarded_run;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map is index-ordered and validates" `Quick test_pool_map;
          Alcotest.test_case "lowest-index exception propagates" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "concurrent raises resolve to lowest index" `Quick
            test_pool_concurrent_raises;
          Alcotest.test_case "jobs above n are clamped" `Quick test_pool_jobs_clamped;
          Alcotest.test_case "campaign canonical output is jobs-invariant" `Slow
            test_campaign_jobs_invariance;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "union bitmap is jobs-invariant" `Slow
            test_coverage_jobs_invariance;
          Alcotest.test_case "adversary knob flips edge buckets" `Quick
            test_coverage_knob_sensitivity;
          Alcotest.test_case "post-hoc signature equals the subscriber's" `Quick
            test_post_hoc_coverage_equals_subscriber;
          Alcotest.test_case "corpus coverage digest is pinned" `Quick
            test_corpus_coverage_digest_pinned;
          Alcotest.test_case "campaign summary digest is pinned" `Slow
            test_campaign_summary_digest_pinned;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "family corpus update" `Quick test_family_corpus_update;
          Alcotest.test_case "corpus artifacts replay" `Slow test_corpus_replays;
        ] );
    ]
