(* Tests for the simlint determinism & simulation-hygiene linter, driving it
   as a library against the fixture corpus under tools/simlint/fixtures/.

   The fixtures are declared as test dependencies, so they are materialised
   under _build next to the test's working directory. *)

open Simlint

let check = Alcotest.(check bool)

(* cwd at runtime is _build/default/test. Under `dune runtest` the declared
   fixture deps are materialised at ../tools/simlint; under a bare
   `dune exec` they are not, so fall back to walking up to the source tree
   (whose root is three levels above the build dir). *)
let fixtures_root =
  let rec find base = function
    | 0 -> Alcotest.fail "tools/simlint/fixtures not found from cwd"
    | n ->
        let candidate = Filename.concat base "tools/simlint" in
        if Sys.file_exists (Filename.concat candidate "fixtures") then candidate
        else find (Filename.concat base "..") (n - 1)
  in
  find "." 7

let run_fixtures ?allowlist () =
  Driver.run ?allowlist ~dirs:[ "fixtures" ] ~force_lib:true ~root:fixtures_root ()

let triple (f : Finding.t) = (f.Finding.rule, f.Finding.file, f.Finding.line)
let opens result = List.map (fun (f, _) -> triple f) (Driver.open_findings result)

let in_file file result =
  List.filter (fun (_, f, _) -> f = "fixtures/" ^ file) (opens result)

let rule_lines rule findings =
  List.filter_map (fun (r, _, l) -> if r = rule then Some l else None) findings

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)

let test_every_rule_fires () =
  let result = run_fixtures () in
  let rules = List.sort_uniq compare (List.map (fun (r, _, _) -> r) (opens result)) in
  List.iter
    (fun rule -> check (rule ^ " fires on the corpus") true (List.mem rule rules))
    [
      "D001"; "D002"; "D003"; "D004"; "D005"; "D006"; "D007"; "D008"; "D009"; "D010"; "D012";
      "D013"; "D014"; "D018";
    ];
  check "no parse failures in fixtures" false (List.mem "E000" rules)

let test_corpus_fails_gate () =
  let result = run_fixtures () in
  check "fixture corpus has open findings" true (Driver.open_findings result <> []);
  check "corpus fails the gate outright" false (Driver.gate_ok result)

let test_d001_sites () =
  let fs = in_file "d001_wallclock.ml" (run_fixtures ()) in
  Alcotest.(check (list int))
    "every wall-clock read flagged, including via Stdlib" [ 3; 4; 5; 6 ]
    (List.sort compare (rule_lines "D001" fs))

let test_d002_sites () =
  let fs = in_file "d002_random.ml" (run_fixtures ()) in
  Alcotest.(check int)
    "Random.*, ~random:, randomize, open, alias all flagged" 6
    (List.length (rule_lines "D002" fs))

let test_d003_only_unsorted () =
  let fs = in_file "d003_hashtbl_order.ml" (run_fixtures ()) in
  Alcotest.(check (list int))
    "iter and unsorted fold flagged; |>, direct and @@ sorts sanctioned" [ 7; 10 ]
    (List.sort compare (rule_lines "D003" fs))

let test_d004_sites () =
  let fs = in_file "d004_unsafe.ml" (run_fixtures ()) in
  Alcotest.(check (list int))
    "Obj.magic, ==, != flagged in lib code" [ 3; 4; 5 ]
    (List.sort compare (rule_lines "D004" fs))

let test_d004_d005_lib_only () =
  (* Without force_lib the fixture is ordinary tool/app code: the unsafe
     constructs and the missing .mli are tolerated. *)
  let findings, _ = Driver.lint_file ~root:fixtures_root ~rel:"fixtures/d004_unsafe.ml" () in
  check "no D004 outside lib" true
    (not (List.exists (fun (f : Finding.t) -> f.Finding.rule = "D004") findings));
  check "no D005 outside lib" true
    (not (List.exists (fun (f : Finding.t) -> f.Finding.rule = "D005") findings))

let test_d006_sites () =
  let fs = in_file "d006_polycompare.ml" (run_fixtures ()) in
  Alcotest.(check (list int))
    "hash, tuple =, Some <>, list compare flagged; scalar = and passed comparator clean"
    [ 4; 5; 6; 7 ]
    (List.sort compare (rule_lines "D006" fs))

let test_d007_sites () =
  let fs = in_file "d007_catchall.ml" (run_fixtures ()) in
  Alcotest.(check (list int))
    "sole wildcard and trailing wildcard flagged; named handler clean" [ 3; 4 ]
    (List.sort compare (rule_lines "D007" fs))

let test_d008_sites () =
  let fs = in_file "d008_toplevel_state.ml" (run_fixtures ()) in
  Alcotest.(check (list int))
    "top-level ref/Hashtbl and nested-module Queue flagged; per-call create clean"
    [ 4; 5; 8 ]
    (List.sort compare (rule_lines "D008" fs))

(* ------------------------------------------------------------------ *)
(* D010: interprocedural nondeterminism taint. *)

let d010_opens result =
  List.filter (fun (r, _, _) -> r = "D010") (opens result)

let test_d010_cross_module_chain () =
  let result = run_fixtures () in
  Alcotest.(check (list (triple string string int)))
    "one-hop, two-hop and clock chains flagged at their call sites"
    [
      ("D010", "fixtures/clock_user.ml", 4);
      ("D010", "fixtures/taint_b.ml", 4);
      ("D010", "fixtures/taint_c.ml", 5);
    ]
    (d010_opens result);
  let sink =
    List.find
      (fun ((f : Finding.t), _) -> f.Finding.file = "fixtures/taint_c.ml" && f.Finding.line = 5)
      result.Driver.findings
    |> fst
  in
  check "message carries the full source->sink chain" true
    (contains ~needle:"Taint_c.use -> Taint_b.wrapped -> Taint_a.roll" sink.Finding.msg);
  check "message names the seed site" true
    (contains ~needle:"`Random.int` (fixtures/taint_a.ml:4)" sink.Finding.msg)

let test_d010_suppressed_sink () =
  let result = run_fixtures () in
  check "justified sink is suppressed, not open" true
    (List.exists
       (fun ((f : Finding.t), s) ->
         s = Finding.Suppressed && triple f = ("D010", "fixtures/taint_c.ml", 8))
       result.Driver.findings)

let test_d010_allowlist () =
  (* With the clock source allowlisted, neither the direct D001 nor the
     downstream D010 fires — same corpus, different disposition. The Random
     chain is unaffected. *)
  let allowlist = [ "fixtures/allowed_clock.ml" ] in
  let result = run_fixtures ~allowlist () in
  Alcotest.(check (list int))
    "allowlisted clock source is D001-clean" []
    (rule_lines "D001" (in_file "allowed_clock.ml" result));
  Alcotest.(check (list int))
    "no taint flows out of an allowlisted source" []
    (rule_lines "D010" (in_file "clock_user.ml" result));
  Alcotest.(check (list (triple string string int)))
    "Random-rooted chains still flagged"
    [ ("D010", "fixtures/taint_b.ml", 4); ("D010", "fixtures/taint_c.ml", 5) ]
    (d010_opens result)

(* D009: parallel dispatch reaching shared mutable state. *)

let test_d009_sites () =
  let result = run_fixtures () in
  Alcotest.(check (list (triple string string int)))
    "dispatch reaching the shared table flagged; pure dispatch clean"
    [ ("D009", "fixtures/pool_user.ml", 8) ]
    (List.filter (fun (r, _, _) -> r = "D009") (opens result));
  let f =
    List.find
      (fun ((f : Finding.t), _) ->
        f.Finding.rule = "D009" && f.Finding.file = "fixtures/pool_user.ml" && f.Finding.line = 8)
      result.Driver.findings
    |> fst
  in
  check "message carries the dispatch->state chain" true
    (contains ~needle:"Pool_user.tainted_campaign -> Pool_user.lookup -> Pool_user.cache"
       f.Finding.msg);
  check "message names the mutable binding" true
    (contains ~needle:"`Hashtbl.create` (fixtures/pool_user.ml:4)" f.Finding.msg)

let test_d009_suppressed_site () =
  let result = run_fixtures () in
  check "justified dispatch suppressed, not open" true
    (List.exists
       (fun ((f : Finding.t), s) ->
         s = Finding.Suppressed && triple f = ("D009", "fixtures/pool_user.ml", 14))
       result.Driver.findings)

(* ------------------------------------------------------------------ *)
(* D012-D013: domain escape, quadratic accumulation. *)

let disposition result (rule, file, line) =
  List.find_map
    (fun ((f : Finding.t), s) -> if triple f = (rule, file, line) then Some (f, s) else None)
    result.Driver.findings

let test_d012_escapes () =
  let result = run_fixtures () in
  Alcotest.(check (list int))
    "captured ref, mutated array and atomic RMW flagged; read-only capture clean" [ 8; 13; 26 ]
    (List.sort compare (rule_lines "D012" (in_file "d012_escape.ml" result)));
  let f, _ = Option.get (disposition result ("D012", "fixtures/d012_escape.ml", 8)) in
  check "escape message names the captured cell" true
    (contains ~needle:"captures mutable `total` (ref)" f.Finding.msg);
  let rmw, _ = Option.get (disposition result ("D012", "fixtures/d012_escape.ml", 26)) in
  check "rmw message points at the composed get/set" true
    (contains ~needle:"read-modify-write on Atomic `c`" rmw.Finding.msg);
  check "tolerated race suppressed, not open" true
    (match disposition result ("D012", "fixtures/d012_escape.ml", 23) with
    | Some (_, s) -> s = Finding.Suppressed
    | None -> false)

let test_d013_quadratic () =
  let result = run_fixtures () in
  Alcotest.(check (list int))
    "@ and ^ accumulators in self-calls flagged; consing and sibling merges clean" [ 5; 7 ]
    (List.sort compare (rule_lines "D013" (in_file "d013_quadratic.ml" result)));
  check "justified tiny-n accumulator suppressed, not open" true
    (match disposition result ("D013", "fixtures/d013_quadratic.ml", 16) with
    | Some (_, s) -> s = Finding.Suppressed
    | None -> false)

(* ------------------------------------------------------------------ *)
(* D014: protocol message flow; D018: worker PRNG derivation. *)

let test_d014_unhandled () =
  let result = run_fixtures () in
  Alcotest.(check (list (triple string string int)))
    "exactly the handler-less fork message flagged, at its construction site"
    [ ("D014", "fixtures/d014_unhandled.ml", 13) ]
    (List.filter (fun (r, _, _) -> r = "D014") (opens result));
  let f, _ = Option.get (disposition result ("D014", "fixtures/d014_unhandled.ml", 13)) in
  check "message names the declaration site" true
    (contains ~needle:"(declared fixtures/d014_unhandled.ml:7)" f.Finding.msg);
  check "message names the constructing node" true
    (contains ~needle:"constructed in D014_unhandled.pass_fork" f.Finding.msg);
  check "sym keys on the constructing node and the constructor" true
    (f.Finding.sym = Some "D014_unhandled.pass_fork->Mf_fork_pass:unhandled");
  check "justified handler-less flood suppressed, not open" true
    (match disposition result ("D014", "fixtures/d014_suppressed.ml", 9) with
    | Some (_, s) -> s = Finding.Suppressed
    | None -> false)

let test_d018_worker_prng () =
  let result = run_fixtures () in
  Alcotest.(check (list (triple string string int)))
    "in-worker PRNG creation flagged; Prng.derive form clean"
    [ ("D018", "fixtures/d018_prng.ml", 8) ]
    (List.filter (fun (r, _, _) -> r = "D018") (opens result));
  let f, _ = Option.get (disposition result ("D018", "fixtures/d018_prng.ml", 8)) in
  check "message names the dispatch and the sanctioned spelling" true
    (contains ~needle:"worker closure passed to Pool.map calls `Prng.create`" f.Finding.msg
    && contains ~needle:"Prng.derive root_seed ~index" f.Finding.msg);
  check "justified shared-stream capture suppressed, not open" true
    (match disposition result ("D018", "fixtures/d018_suppressed.ml", 8) with
    | Some (_, s) -> s = Finding.Suppressed
    | None -> false)

(* The --only rule filter: findings outside the selection vanish
   entirely, open findings of the selected rules survive. *)
let test_only_filter () =
  let result =
    Driver.run ~only:[ "D014"; "D018" ] ~dirs:[ "fixtures" ] ~force_lib:true ~root:fixtures_root ()
  in
  let rules =
    List.sort_uniq compare
      (List.map (fun ((f : Finding.t), _) -> f.Finding.rule) result.Driver.findings)
  in
  Alcotest.(check (list string))
    "only the selected rules survive, open or suppressed" [ "D014"; "D018" ] rules;
  Alcotest.(check (list (triple string string int)))
    "open findings are exactly the two firing fixtures"
    [ ("D014", "fixtures/d014_unhandled.ml", 13); ("D018", "fixtures/d018_prng.ml", 8) ]
    (List.sort compare (opens result))

(* Callgraph resolution through [include M] and functor bodies, which the
   message-flow pass depends on: a handler arm inside a functor must count as
   handling, and a bare reference to an included binding must resolve. *)
let test_callgraph_include_functor () =
  let rel = "fixtures/cg_functor.ml" in
  let path = Filename.concat fixtures_root rel in
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let str = Driver.parse_structure ~path text in
  let g = Callgraph.build [ { Callgraph.rel; lib = true; wallclock_ok = false; str } ] in
  check "functor-body let registers under the functor's name" true
    (Callgraph.find_node g "Cg_functor.Make.consume" <> None);
  let edge caller callee =
    List.exists
      (fun (e : Callgraph.edge) -> e.Callgraph.caller = caller && e.Callgraph.callee = callee)
      g.Callgraph.edges
  in
  check "include-as-open resolves the bare reference" true
    (edge "Cg_functor.emit" "Cg_functor.Impl.weight");
  check "functor body resolves through the include too" true
    (edge "Cg_functor.Make.consume" "Cg_functor.Impl.weight");
  (* And the payoff: D014 stays silent on [Cg_probe], whose only handler arm
     lives inside the functor body. *)
  let result = run_fixtures () in
  check "no D014 for the functor-handled constructor" true
    (List.for_all
       (fun ((f : Finding.t), _) ->
         not (f.Finding.rule = "D014" && contains ~needle:"Cg_probe" f.Finding.msg))
       result.Driver.findings)

let test_catalog_coverage () =
  (* Every catalogued rule has both a firing and a suppressed fixture, so the
     corpus pins each rule's detection AND its suppression path. E000 is the
     parse-failure rule: the corpus deliberately contains no broken file (a
     parse failure would silently shrink every other analysis). *)
  let result = run_fixtures () in
  let open_rules = List.map (fun (r, _, _) -> r) (opens result) in
  let suppressed_rules =
    List.filter_map
      (fun ((f : Finding.t), s) ->
        if s = Finding.Suppressed then Some f.Finding.rule else None)
      result.Driver.findings
  in
  List.iter
    (fun (rule, _) ->
      if rule <> "E000" then begin
        check (rule ^ " has a firing fixture") true (List.mem rule open_rules);
        check (rule ^ " has a suppressed fixture") true (List.mem rule suppressed_rules)
      end)
    Rules.catalog

(* ------------------------------------------------------------------ *)
(* SARIF emission. *)

let test_sarif_pinned () =
  let result = run_fixtures () in
  let produced = Sarif.to_string result.Driver.findings ^ "\n" in
  (match Sys.getenv_opt "SIMLINT_SARIF_UPDATE" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir "expected.sarif") in
      output_string oc produced;
      close_out oc
  | None -> ());
  let expected =
    let ic = open_in_bin (Filename.concat fixtures_root "fixtures/expected.sarif") in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "SARIF of the fixture corpus is pinned byte-exactly" expected produced

let test_sarif_shape () =
  let result = run_fixtures () in
  let j = Sarif.of_findings result.Driver.findings in
  let open Obs.Json in
  Alcotest.(check string) "version" "2.1.0" (str (get j "version"));
  let run = List.hd (arr (get j "runs")) in
  let results = arr (get run "results") in
  Alcotest.(check int)
    "one result per finding"
    (List.length result.Driver.findings)
    (List.length results);
  let suppressed_count =
    List.length (List.filter (fun r -> find r "suppressions" <> None) results)
  in
  Alcotest.(check int)
    "suppressed findings carry a suppressions array"
    (List.length result.Driver.findings - List.length (Driver.open_findings result))
    suppressed_count;
  let with_sym =
    List.length
      (List.filter (fun ((f : Finding.t), _) -> f.Finding.sym <> None) result.Driver.findings)
  in
  Alcotest.(check int)
    "interprocedural results carry a simlintSym fingerprint" with_sym
    (List.length
       (List.filter
          (fun r ->
            match find r "partialFingerprints" with
            | Some fp -> find fp "simlintSym/v1" <> None
            | None -> false)
          results));
  check "sym-carrying results exist" true (with_sym > 0);
  (* The fingerprint of an interprocedural finding is its symbol chain, so
     every one of them must carry a sym. *)
  let interprocedural =
    List.filter
      (fun ((f : Finding.t), _) ->
        List.mem f.Finding.rule
          [ "D009"; "D010"; "D012"; "D013"; "D014"; "D018" ])
      result.Driver.findings
  in
  check "interprocedural rules present in the fixture run" true
    (List.exists (fun ((f : Finding.t), _) -> f.Finding.rule = "D010") interprocedural);
  check "every interprocedural finding carries a sym" true
    (List.for_all (fun ((f : Finding.t), _) -> f.Finding.sym <> None) interprocedural);
  let driver = get (get run "tool") "driver" in
  Alcotest.(check int) "rule catalog shipped" (List.length Rules.catalog)
    (List.length (arr (get driver "rules")))

let test_severities () =
  Alcotest.(check string) "D001 is an error" "error"
    (Finding.severity_name (Finding.severity_of_rule "D001"));
  Alcotest.(check string) "D010 is an error" "error"
    (Finding.severity_name (Finding.severity_of_rule "D010"));
  Alcotest.(check string) "D006 is a warning" "warning"
    (Finding.severity_name (Finding.severity_of_rule "D006"));
  Alcotest.(check string) "D014 is an error" "error"
    (Finding.severity_name (Finding.severity_of_rule "D014"));
  Alcotest.(check string) "D018 is an error" "error"
    (Finding.severity_name (Finding.severity_of_rule "D018"));
  Alcotest.(check string) "unknown rules downgrade to note" "note"
    (Finding.severity_name (Finding.severity_of_rule "D999"))

let test_suppression_exact () =
  let result = run_fixtures () in
  (* The only open finding in suppressed.ml is the D002 whose comment names
     the wrong rule id. *)
  Alcotest.(check (list (triple string string int)))
    "mis-named allow does not silence"
    [ ("D002", "fixtures/suppressed.ml", 16) ]
    (in_file "suppressed.ml" result);
  let suppressed =
    List.filter
      (fun (f, s) -> s = Finding.Suppressed && f.Finding.file = "fixtures/suppressed.ml")
      result.Driver.findings
  in
  Alcotest.(check int) "named rules silenced at their sites" 4 (List.length suppressed)

let test_clean_fixture () =
  Alcotest.(check (list (triple string string int)))
    "compliant file yields nothing" []
    (in_file "clean.ml" (run_fixtures ()))

let test_suppress_parser () =
  let t = Suppress.parse "let a = 1\n(* simlint: allow D001 D003 — why *)\nlet b = 2\n" in
  check "covers own line" true (Suppress.covers t ~rule:"D001" ~line:2);
  check "covers next line" true (Suppress.covers t ~rule:"D003" ~line:3);
  check "does not cover later lines" false (Suppress.covers t ~rule:"D001" ~line:4);
  check "does not cover other rules" false (Suppress.covers t ~rule:"D002" ~line:3);
  check "no marker, no suppression" true (Suppress.parse "(* allow D001 *)" = [])

(* Every [simlint: allow] comment in the tree [make lint] scans names a
   catalogued rule: an allow that outlives its rule silences nothing and
   misleads its reader. The sources are test dependencies, materialised
   one level above the test's working directory; from elsewhere the walk
   up finds the source tree. *)
let test_allows_name_rules () =
  let rec tree_root base = function
    | 0 -> Alcotest.fail "lib/dsim/engine.ml not found from cwd"
    | n ->
        if Sys.file_exists (Filename.concat base "lib/dsim/engine.ml") then base
        else tree_root (Filename.concat base "..") (n - 1)
  in
  let root = tree_root "." 7 in
  let allows =
    List.concat_map
      (fun dir ->
        List.concat_map
          (fun rel ->
            List.map
              (fun (line, rule) -> (rel, line, rule))
              (Suppress.parse (Driver.read_file (Filename.concat root rel))))
          (Driver.ml_files root dir))
      Driver.default_dirs
  in
  check "the scanned tree has allow comments" true (allows <> []);
  List.iter
    (fun (rel, line, rule) ->
      if not (List.mem_assoc rule Rules.catalog) then
        Alcotest.failf "%s:%d allows %s, which is not a rule of the catalog" rel line rule)
    allows

let () =
  Alcotest.run "simlint"
    [
      ( "rules",
        [
          Alcotest.test_case "every rule fires" `Quick test_every_rule_fires;
          Alcotest.test_case "corpus fails the gate" `Quick test_corpus_fails_gate;
          Alcotest.test_case "D001 wall clock" `Quick test_d001_sites;
          Alcotest.test_case "D002 randomness" `Quick test_d002_sites;
          Alcotest.test_case "D003 unsorted traversals only" `Quick test_d003_only_unsorted;
          Alcotest.test_case "D004 unsafe constructs" `Quick test_d004_sites;
          Alcotest.test_case "D004/D005 are lib-only" `Quick test_d004_d005_lib_only;
          Alcotest.test_case "D006 polymorphic compare/hash" `Quick test_d006_sites;
          Alcotest.test_case "D007 catch-all handlers" `Quick test_d007_sites;
          Alcotest.test_case "D008 module-level mutable state" `Quick test_d008_sites;
        ] );
      ( "taint",
        [
          Alcotest.test_case "D010 cross-module chain" `Quick test_d010_cross_module_chain;
          Alcotest.test_case "D010 sink suppression" `Quick test_d010_suppressed_sink;
          Alcotest.test_case "D010 respects the allowlist" `Quick test_d010_allowlist;
          Alcotest.test_case "D009 shared state under parallel dispatch" `Quick test_d009_sites;
          Alcotest.test_case "D009 site suppression" `Quick test_d009_suppressed_site;
        ] );
      ( "hotpath",
        [
          Alcotest.test_case "D012 domain escapes and RMW" `Quick test_d012_escapes;
          Alcotest.test_case "D013 quadratic accumulation" `Quick test_d013_quadratic;
          Alcotest.test_case "catalog fully covered by fixtures" `Quick test_catalog_coverage;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "D014 unhandled protocol message" `Quick test_d014_unhandled;
          Alcotest.test_case "D018 worker PRNG derivation" `Quick test_d018_worker_prng;
          Alcotest.test_case "--only rule filter" `Quick test_only_filter;
          Alcotest.test_case "callgraph through include and functors" `Quick
            test_callgraph_include_functor;
        ] );
      ( "dispositions",
        [
          Alcotest.test_case "suppression is per-site and per-rule" `Quick test_suppression_exact;
          Alcotest.test_case "clean file stays clean" `Quick test_clean_fixture;
          Alcotest.test_case "suppress comment parser" `Quick test_suppress_parser;
          Alcotest.test_case "every allow names a catalogued rule" `Quick
            test_allows_name_rules;
        ] );
      ( "report",
        [
          Alcotest.test_case "SARIF pinned byte-exactly" `Quick test_sarif_pinned;
          Alcotest.test_case "SARIF document shape" `Quick test_sarif_shape;
          Alcotest.test_case "severity mapping" `Quick test_severities;
        ] );
    ]
