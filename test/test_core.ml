(* Tests for the core umbrella: scenario builders and batch statistics. *)

open Dsim

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Batch statistics *)

let test_stats_basic () =
  let s = Core.Batch.Stats.of_ints [ 1; 2; 3; 4; 5 ] in
  checkf "mean" 3.0 s.Core.Batch.Stats.mean;
  checkf "median" 3.0 s.Core.Batch.Stats.median;
  checkf "min" 1.0 s.Core.Batch.Stats.min_;
  checkf "max" 5.0 s.Core.Batch.Stats.max_;
  Alcotest.(check int) "count" 5 s.Core.Batch.Stats.count

let test_stats_even_median () =
  let s = Core.Batch.Stats.of_ints [ 1; 2; 3; 4 ] in
  checkf "median of even list" 2.5 s.Core.Batch.Stats.median

let test_stats_constant () =
  let s = Core.Batch.Stats.of_floats [ 7.0; 7.0; 7.0 ] in
  checkf "stddev of constant" 0.0 s.Core.Batch.Stats.stddev

let test_stats_empty_rejected () =
  (try
     ignore (Core.Batch.Stats.of_floats []);
     Alcotest.fail "empty accepted"
   with Invalid_argument _ -> ())

let test_seeds_distinct () =
  let seeds = Core.Batch.seeds 10 in
  Alcotest.(check int) "ten distinct seeds" 10 (List.length (List.sort_uniq compare seeds))

let test_sweep () =
  let results = Core.Batch.sweep ~seeds:(Core.Batch.seeds 4) (fun ~seed -> Int64.to_int seed) in
  Alcotest.(check int) "four results" 4 (List.length results);
  let hits, total =
    Core.Batch.count_where ~seeds:(Core.Batch.seeds 4) (fun ~seed -> Int64.to_int seed mod 2 = 0)
  in
  check "count_where total" true (total = 4 && hits <= 4)

(* ------------------------------------------------------------------ *)
(* Scenario builders are deterministic and well-formed *)

let test_scenario_determinism () =
  let run () =
    let r = Core.Scenario.wf_extraction ~seed:55L ~with_lemma_monitors:false ~n:2 () in
    Engine.run r.Core.Scenario.engine ~until:6000;
    Trace.length (Engine.trace r.Core.Scenario.engine)
  in
  Alcotest.(check int) "identical trace lengths" (run ()) (run ())

let test_scenario_pair_lookup () =
  let r = Core.Scenario.wf_extraction ~seed:56L ~with_lemma_monitors:false ~n:3 () in
  Alcotest.(check int) "six ordered pairs" 6
    (List.length r.Core.Scenario.extract.Reduction.Extract.pairs);
  let p = Reduction.Extract.pair r.Core.Scenario.extract ~watcher:2 ~subject:0 in
  check "pair identity" true (p.Reduction.Pair.watcher = 2 && p.Reduction.Pair.subject = 0);
  (try
     ignore (Reduction.Extract.pair r.Core.Scenario.extract ~watcher:0 ~subject:0);
     Alcotest.fail "self pair accepted"
   with Not_found -> ())

let test_scenario_oracle_aggregation () =
  let r = Core.Scenario.wf_extraction ~seed:57L ~with_lemma_monitors:false ~n:3 () in
  Engine.schedule_crash r.Core.Scenario.engine 2 ~at:2000;
  Engine.run r.Core.Scenario.engine ~until:15000;
  let oracle = Reduction.Extract.oracle r.Core.Scenario.extract 0 in
  let s = oracle.Detectors.Oracle.suspects () in
  check "aggregated module suspects the crashed process" true (Types.Pidset.mem 2 s);
  check "and trusts the correct one" false (Types.Pidset.mem 1 s)

let test_vulnerability_modes_disagree () =
  let run mode =
    let engine =
      Engine.create ~seed:43L ~n:2 ~adversary:(Adversary.partial_sync ~gst:500 ()) ()
    in
    let suspected = Core.Scenario.vulnerability engine ~mode in
    Engine.run engine ~until:12000;
    let det = match mode with `Flawed_cm -> "flawed-cm" | `Our_reduction -> "extracted" in
    ( List.length (Trace.suspicion_flips (Engine.trace engine) ~detector:det ~owner:1 ~target:0),
      suspected () )
  in
  let flawed_flips, _ = run `Flawed_cm in
  let our_flips, our_final = run `Our_reduction in
  check "flawed oscillates much more" true (flawed_flips > 10 * our_flips);
  check "ours converges to trust" false our_final

(* ------------------------------------------------------------------ *)
(* Certification of a box (Check.Runner.certify) *)

let certify box = Check.Runner.certify box ~seeds:[ 42L ] ~horizon:16000

let failed_checks box =
  List.concat_map (fun (_, checks) -> Check.Runner.failed checks) (certify box)

let test_certify_wf_box () =
  List.iter
    (fun ((c : Check.Config.t), checks) ->
      List.iter
        (fun (ch : Obs.Report.check) ->
          if not ch.Obs.Report.holds then
            Alcotest.failf "%s: %s: %s" (Check.Config.describe c) ch.Obs.Report.name
              ch.Obs.Report.detail)
        checks)
    (certify Core.Scenario.wf_box)

let test_certify_kfair_box () =
  check "kfair box certified" true (failed_checks Core.Scenario.kfair_box = [])

let test_certify_ftme_box () =
  check "ftme box certified" true (failed_checks Core.Scenario.ftme_box = [])

let test_certify_negative_control () =
  let failed = failed_checks Core.Scenario.hygienic_box in
  check "negative control rejected" false (failed = []);
  (* it must fail exactly on the liveness-derived checks *)
  List.iter
    (fun name ->
      check ("failure is liveness-related: " ^ name) true
        (name = "wait_freedom" || name = "strong_completeness"))
    failed

(* Shared --seed parsing (Core.Cmdline): hex and decimal must be accepted
   uniformly by every dinersim subcommand and stress/sweep.exe. *)
let test_cmdline_parse_seed () =
  let ok s v =
    match Core.Cmdline.parse_seed s with
    | Ok got -> Alcotest.(check int64) (Printf.sprintf "parse %S" s) v got
    | Error e -> Alcotest.fail (Printf.sprintf "parse %S failed: %s" s e)
  in
  ok "7" 7L;
  ok "  42 " 42L;
  ok "0x2F00d" 0x2F00dL;
  ok "0XDEADBEEF" 0xDEADBEEFL;
  ok "0o17" 15L;
  ok "0b101" 5L;
  ok "1_000_000" 1_000_000L;
  ok "-1" (-1L);
  ok "0xffffffffffffffff" (-1L);
  List.iter
    (fun s ->
      match Core.Cmdline.parse_seed s with
      | Ok v -> Alcotest.fail (Printf.sprintf "parse %S unexpectedly gave %Ld" s v)
      | Error _ -> ())
    [ ""; "  "; "seed"; "0x"; "12abc"; "0xzz" ]

let test_cmdline_seed_roundtrip () =
  List.iter
    (fun v ->
      match Core.Cmdline.parse_seed (Core.Cmdline.seed_to_string v) with
      | Ok got -> Alcotest.(check int64) "seed echo round-trips" v got
      | Error e -> Alcotest.fail e)
    [ 0L; 7L; -1L; 0x2F00dL; Int64.max_int; Int64.min_int ]

let test_cmdline_extract_seed_flag () =
  let extract args = Core.Cmdline.extract_seed_flag ~default:9L args in
  (match extract [ "a"; "--seed"; "0x10"; "b" ] with
  | Ok (seed, rest) ->
      Alcotest.(check int64) "--seed V consumed" 16L seed;
      Alcotest.(check (list string)) "other args preserved" [ "a"; "b" ] rest
  | Error e -> Alcotest.fail e);
  (match extract [ "--seed=33" ] with
  | Ok (seed, rest) ->
      Alcotest.(check int64) "--seed=V consumed" 33L seed;
      Alcotest.(check (list string)) "nothing left" [] rest
  | Error e -> Alcotest.fail e);
  (match extract [ "x"; "y" ] with
  | Ok (seed, rest) ->
      Alcotest.(check int64) "default used when flag absent" 9L seed;
      Alcotest.(check (list string)) "args untouched" [ "x"; "y" ] rest
  | Error e -> Alcotest.fail e);
  (match extract [ "--seed" ] with
  | Ok _ -> Alcotest.fail "dangling --seed accepted"
  | Error _ -> ());
  match extract [ "--seed"; "nope" ] with
  | Ok _ -> Alcotest.fail "bad seed value accepted"
  | Error _ -> ()

let () =
  Alcotest.run "core"
    [
      ( "cmdline",
        [
          Alcotest.test_case "parse seed" `Quick test_cmdline_parse_seed;
          Alcotest.test_case "seed echo roundtrip" `Quick test_cmdline_seed_roundtrip;
          Alcotest.test_case "extract --seed flag" `Quick test_cmdline_extract_seed_flag;
        ] );
      ( "batch",
        [
          Alcotest.test_case "stats basic" `Quick test_stats_basic;
          Alcotest.test_case "even median" `Quick test_stats_even_median;
          Alcotest.test_case "constant stddev" `Quick test_stats_constant;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
          Alcotest.test_case "seeds distinct" `Quick test_seeds_distinct;
          Alcotest.test_case "sweep" `Quick test_sweep;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "determinism" `Quick test_scenario_determinism;
          Alcotest.test_case "pair lookup" `Quick test_scenario_pair_lookup;
          Alcotest.test_case "oracle aggregation" `Quick test_scenario_oracle_aggregation;
          Alcotest.test_case "vulnerability modes disagree" `Quick
            test_vulnerability_modes_disagree;
        ] );
      ( "certify",
        [
          Alcotest.test_case "wf box certifies" `Quick test_certify_wf_box;
          Alcotest.test_case "kfair box certifies" `Quick test_certify_kfair_box;
          Alcotest.test_case "ftme box certifies" `Quick test_certify_ftme_box;
          Alcotest.test_case "negative control rejected" `Quick test_certify_negative_control;
        ] );
    ]
