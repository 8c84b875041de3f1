(* The dinersim CLI contract, on the built binary: each single-run
   subcommand exits 0 when every check holds and 1 when one fails (its
   report written either way), its report parses and names its checks,
   and out-of-range input exits 2 with one "dinersim:" line. Short
   horizons keep the whole suite to a few seconds. *)

let exe = Filename.concat Filename.parent_dir_name (Filename.concat "bin" "dinersim.exe")

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run dinersim with [args]: its exit status, stdout and stderr. *)
let dinersim args =
  let out = Filename.temp_file "dinersim-cli" ".out" in
  let err = Filename.temp_file "dinersim-cli" ".err" in
  let status = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (status, o, e)

(* The exit status of a run with --report, and the report's checks. *)
let judged args =
  let what = String.concat " " args in
  let path = Filename.temp_file "dinersim-cli" ".json" in
  let status, _, err = dinersim (args @ [ "--report"; path ]) in
  let checks =
    match Obs.Report.read_any ~path with
    | `Run j -> (
        match Obs.Json.find j "checks" with
        | Some (Obs.Json.Arr l) -> List.map Obs.Report.check_of_json l
        | _ -> Alcotest.failf "%s: report without checks" what)
    | `Campaign _ | `Mc _ -> Alcotest.failf "%s: not a run report" what
    | exception Failure msg -> Alcotest.failf "%s: %s (stderr: %s)" what msg err
  in
  Sys.remove path;
  (status, checks)

let names checks = List.map (fun (c : Obs.Report.check) -> c.Obs.Report.name) checks

let test_exit_status_and_report () =
  List.iter
    (fun (args, expected_status, expected_checks) ->
      let what = String.concat " " args in
      let status, checks = judged args in
      Alcotest.(check int) (what ^ ": exit status") expected_status status;
      Alcotest.(check (list string)) (what ^ ": report checks") expected_checks (names checks);
      Alcotest.(check bool)
        (what ^ ": exit 1 iff a check fails")
        (expected_status = 1)
        (Check.Runner.failed checks <> []))
    [
      ( [ "extract"; "--horizon"; "3000"; "--lemmas" ],
        0,
        [ "strong_completeness"; "eventual_strong_accuracy"; "lemmas.0>1"; "lemmas.1>0" ] );
      ( [ "dining"; "--horizon"; "2000"; "--crash"; "1@500" ],
        0,
        [ "wait_freedom"; "eventual_weak_exclusion" ] );
      ( [ "dining"; "--algo"; "hygienic"; "--topology"; "grid:2x3"; "--crash"; "1@500";
          "--horizon"; "3000" ],
        1,
        [ "wait_freedom"; "eventual_weak_exclusion" ] );
      ( [ "vulnerability"; "--mode"; "ours"; "--horizon"; "4000" ],
        0,
        [ "accuracy_converged"; "finally_trusts_correct_q" ] );
      ( [ "vulnerability"; "--mode"; "flawed"; "--horizon"; "4000" ],
        1,
        [ "accuracy_converged"; "finally_trusts_correct_q" ] );
      ([ "wsn"; "--horizon"; "3000" ], 0, [ "outlives_two_batteries" ]);
      ([ "wsn"; "--scheduler"; "all-on"; "--horizon"; "3000" ], 1, [ "outlives_two_batteries" ]);
      (* Too short to outlive two batteries, and shorter than the ten
         samples the summary prints. *)
      ([ "wsn"; "--horizon"; "5" ], 1, [ "outlives_two_batteries" ]);
      ( [ "ctm"; "--horizon"; "3000" ],
        0,
        [ "every_client_commits"; "aborts_below_half_the_commits" ] );
      (* Without the manager, contention aborts more than it commits. *)
      ( [ "ctm"; "--no-cm"; "--horizon"; "3000" ],
        1,
        [ "every_client_commits"; "aborts_below_half_the_commits" ] );
      ([ "agreement"; "--horizon"; "3000" ], 0, [ "agreement"; "all_correct_decided" ]);
      ( [ "agreement"; "--detector"; "native"; "--horizon"; "3000" ],
        0,
        [ "agreement"; "all_correct_decided" ] );
    ]

(* The ftme box deploys with the online Lemma monitors, as the
   extract-ftme target does, so --lemmas judges every pair. *)
let test_ftme_extraction_judges_lemmas () =
  let status, checks =
    judged
      [ "extract"; "--box"; "ftme"; "-n"; "3"; "--crash"; "2@1500"; "--horizon"; "3000";
        "--lemmas" ]
  in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check (list string))
    "report checks"
    [
      "strong_completeness"; "eventual_strong_accuracy"; "trusting_accuracy"; "lemmas.0>1";
      "lemmas.0>2"; "lemmas.1>0"; "lemmas.1>2"; "lemmas.2>0"; "lemmas.2>1";
    ]
    (names checks)

(* A reduction's report does not grow with n: its 2n(n-1) dining
   instances are keyed by family, so no metric name carries a pair, and
   the n = 16 report and its summary stay small. *)
let test_extraction_report_stays_small () =
  List.iter
    (fun n ->
      let what = Printf.sprintf "extract -n %d" n in
      let path = Filename.temp_file "dinersim-cli" ".json" in
      let status, _, err =
        dinersim [ "extract"; "-n"; string_of_int n; "--horizon"; "5000"; "--report"; path ]
      in
      Alcotest.(check int) (what ^ ": exit status, stderr " ^ err) 0 status;
      let bytes = String.length (read path) in
      let metrics =
        match Obs.Report.read_any ~path with
        | `Run j -> Obs.Json.get j "metrics"
        | `Campaign _ | `Mc _ -> Alcotest.failf "%s: not a run report" what
      in
      let _, summary, _ = dinersim [ "report"; path ] in
      Sys.remove path;
      (match metrics with
      | Obs.Json.Obj kinds ->
          List.iter
            (fun (_, kind) ->
              match kind with
              | Obs.Json.Obj fields ->
                  List.iter
                    (fun (name, _) ->
                      if String.contains name '[' then
                        Alcotest.failf "%s: metric %s names an instance" what name)
                    fields
              | _ -> Alcotest.failf "%s: malformed metrics" what)
            kinds
      | _ -> Alcotest.failf "%s: malformed metrics" what);
      if n = 16 then begin
        let lines = List.length (String.split_on_char '\n' summary) - 1 in
        Alcotest.(check bool) (Printf.sprintf "%s: report of %d bytes under 16 KB" what bytes) true
          (bytes < 16 * 1024);
        Alcotest.(check bool) (Printf.sprintf "%s: summary of %d lines under 20" what lines) true
          (lines < 20)
      end)
    [ 2; 16 ]

let test_out_of_range_input () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let status, out, err = dinersim args in
      Alcotest.(check int) (what ^ ": exit status") 2 status;
      Alcotest.(check string) (what ^ ": no stdout") "" out;
      Alcotest.(check bool)
        (what ^ ": one dinersim: line on stderr, got " ^ err)
        true
        (String.starts_with ~prefix:"dinersim: " err
        && String.index_opt err '\n' = Some (String.length err - 1)))
    [
      [ "wsn"; "--areas"; "0" ];
      [ "wsn"; "--nodes"; "0" ];
      [ "wsn"; "--energy"; "0" ];
      [ "ctm"; "--clients=-1" ];
      [ "ctm"; "--clients"; "0" ];
      [ "extract"; "--horizon"; "0" ];
      [ "dining"; "--horizon=-1" ];
      [ "vulnerability"; "--horizon"; "0" ];
      [ "wsn"; "--horizon"; "0" ];
      [ "ctm"; "--horizon"; "0" ];
      [ "agreement"; "--horizon"; "0" ];
      [ "certify"; "--horizon"; "0" ];
      [ "extract"; "-n"; "1" ];
      [ "extract"; "-n"; "3000000" ];
      [ "dining"; "--topology"; "pair"; "--crash"; "9@100" ];
      (* A file under the binary, which is no directory. *)
      [ "dining"; "--horizon"; "100"; "--trace-csv"; Filename.concat exe "trace.csv" ];
    ]

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "exit status and report of each subcommand" `Quick
            test_exit_status_and_report;
          Alcotest.test_case "ftme extraction judges the lemmas" `Quick
            test_ftme_extraction_judges_lemmas;
          Alcotest.test_case "out-of-range input exits 2" `Quick test_out_of_range_input;
          Alcotest.test_case "extraction report does not grow with n" `Quick
            test_extraction_report_stays_small;
        ] );
    ]
