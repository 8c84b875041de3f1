(* dinersim — command-line driver for the simulator and the reduction.

   Subcommands:
     extract        run the ◇P (or T) extraction and report its properties
     dining         run a dining algorithm on a topology and check its specs
     vulnerability  replay the Section 3 scenario ([8] vs this paper)
     wsn            duty-cycle scheduling demo
     ctm            contention-manager boost demo
     agreement      consensus and leader election over ◇P
     certify        check that a dining box behaves as a WF-◇WX box
     report         validate and summarise a report
     fuzz           randomized schedule-fuzzing campaign with shrinking
     check          bounded exhaustive model checking
     replay         re-execute fuzz-repro/1 artifacts and verify verdicts
     trace          render a run as a Perfetto-openable Chrome trace document

   Every run is deterministic in --seed. *)

open Cmdliner
open Dsim

(* ------------------------------------------------------------------ *)
(* Shared argument parsing *)

(* Refuse bad input with one [dinersim:] line on stderr and exit status 2. *)
let reject fmt = Printf.ksprintf (fun msg -> prerr_endline ("dinersim: " ^ msg); exit 2) fmt

(* Seed parsing is shared with stress/sweep.exe through Core.Cmdline, so
   hex (0x2f00d) and decimal seeds are accepted uniformly and seeds echoed
   by one tool are valid input to every other. *)
let seed_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Core.Cmdline.parse_seed s) in
  let print fmt s = Format.pp_print_string fmt (Core.Cmdline.seed_to_string s) in
  Arg.conv (parse, print)

let seed_t =
  let doc = "PRNG seed, decimal or 0x-hex (all runs are deterministic in the seed)." in
  Arg.(value & opt seed_conv 7L & info [ "seed" ] ~docv:"SEED" ~doc)

let horizon_t default =
  let doc = "Number of global-clock ticks to simulate." in
  Arg.(value & opt int default & info [ "horizon" ] ~docv:"TICKS" ~doc)

let adversary_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "sync" ] -> Ok (Adversary.synchronous ())
    | [ "async" ] -> Ok (Adversary.async_uniform ())
    | [ "partial" ] -> Ok (Adversary.partial_sync ())
    | [ "partial"; gst ] -> (
        match int_of_string_opt gst with
        | Some gst -> Ok (Adversary.partial_sync ~gst ())
        | None -> Error (`Msg "partial:<gst> expects an integer"))
    | [ "bursty" ] -> Ok (Adversary.bursty ())
    | [ "bursty"; gst ] -> (
        match int_of_string_opt gst with
        | Some gst -> Ok (Adversary.bursty ~gst ())
        | None -> Error (`Msg "bursty:<gst> expects an integer"))
    | _ -> Error (`Msg (Printf.sprintf "unknown adversary %S" s))
  in
  let print fmt (a : Adversary.t) = Format.pp_print_string fmt a.Adversary.name in
  Arg.conv (parse, print)

let adversary_t =
  let doc =
    "Run adversary: sync | async | partial[:GST] | bursty[:GST]. Controls message \
     delays and step scheduling."
  in
  Arg.(
    value
    & opt adversary_conv (Adversary.partial_sync ~gst:500 ())
    & info [ "adversary" ] ~docv:"KIND" ~doc)

let pid_at (pid, at) = Printf.sprintf "%d@%d" pid at

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ pid; at ] -> (
        match (int_of_string_opt pid, int_of_string_opt at) with
        | Some pid, Some at -> Ok (pid, at)
        | _ -> Error (`Msg "expected PID@TICK"))
    | _ -> Error (`Msg "expected PID@TICK")
  in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt (pid_at c))

let crashes_t =
  let doc = "Crash process $(i,PID) at tick $(i,TICK) (repeatable), e.g. --crash 2@5000." in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@TICK" ~doc)

let topology_conv =
  let module G = Graphs.Conflict_graph in
  let sized shape lo make n =
    match int_of_string_opt n with
    | Some n when n >= lo -> Ok (make ~n)
    | _ -> Error (`Msg (Printf.sprintf "%s:<n> expects n >= %d" shape lo))
  in
  let parse s =
    match String.split_on_char ':' s with
    | [ "pair" ] -> Ok (G.pair ())
    | [ "ring"; n ] -> sized "ring" 3 G.ring n
    | [ "clique"; n ] -> sized "clique" 2 G.clique n
    | [ "star"; n ] -> sized "star" 2 G.star n
    | [ "path"; n ] -> sized "path" 2 G.path n
    | [ "grid"; dims ] -> (
        match String.split_on_char 'x' dims with
        | [ r; c ] -> (
            match (int_of_string_opt r, int_of_string_opt c) with
            | Some rows, Some cols when rows >= 1 && cols >= 1 -> Ok (G.grid ~rows ~cols)
            | _ -> Error (`Msg "grid:<r>x<c> expects positive integers"))
        | _ -> Error (`Msg "grid:<r>x<c>"))
    | _ -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print fmt g = Format.fprintf fmt "<graph n=%d edges=%d>" (G.n g) (List.length (G.edges g)) in
  Arg.conv (parse, print)

let topology_t =
  let doc = "Conflict graph: pair | ring:N | clique:N | star:N | path:N | grid:RxC." in
  Arg.(value & opt topology_conv (Graphs.Conflict_graph.ring ~n:5)
       & info [ "topology" ] ~docv:"SHAPE" ~doc)

let dump_trace_t =
  let doc = "Print the first $(i,N) trace events before the summary." in
  Arg.(value & opt int 0 & info [ "dump-trace" ] ~docv:"N" ~doc)

let csv_t =
  let doc = "Export the full run trace as CSV to $(i,PATH)." in
  Arg.(value & opt (some string) None & info [ "trace-csv" ] ~docv:"PATH" ~doc)

let trace_out_t =
  let doc = "Stream the run trace to $(i,PATH) as JSONL (one event object per line)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc)

let report_t =
  let doc = "Write a machine-readable JSON run report to $(i,PATH)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)

let at_least flag lo v = if v < lo then reject "%s must be at least %d (got %d)" flag lo v

(* Fail file-open/write problems as a clean CLI error instead of an
   uncaught Sys_error traceback. *)
let io_or_die what f = try f () with Sys_error msg -> reject "cannot write %s: %s" what msg

(* The one report writer of every subcommand that takes --report. *)
let write_report path json =
  Option.iter
    (fun path ->
      io_or_die "report" (fun () -> Obs.Json.write_file ~path (json ()));
      Printf.printf "report written to %s\n" path)
    path

(* ------------------------------------------------------------------ *)
(* The single-run harness. extract, dining, vulnerability, wsn, ctm and
   agreement each give a deployment on a fresh engine, which returns the
   run's judge: it prints the run's summary and returns its checks.
   run_single does every other step the same way for all six. *)

(* Their flags: [crashes] is [None] without --crash; [dump] and [csv] are
   0 and [None] without --dump-trace and --trace-csv. *)
type flags = {
  seed : int64;
  horizon : int;
  crashes : (int * int) list option;
  dump : int;
  csv : string option;
  trace_out : string option;
  report : string option;
}

let flags_t ?(crashes = false) ?(debug = false) horizon =
  Term.(
    const (fun seed horizon crashes dump csv trace_out report ->
        { seed; horizon; crashes; dump; csv; trace_out; report })
    $ seed_t $ horizon_t horizon
    $ (if crashes then map Option.some crashes_t else const None)
    $ (if debug then dump_trace_t else const 0)
    $ (if debug then csv_t else const None)
    $ trace_out_t $ report_t)

(* Validate the horizon, create the engine, schedule the crashes, install
   the instrumentation and the --trace-out sink before the deployment (so
   they see every event), run through Check.Runner.guarded_run,
   then judge, or print the fault as the run's one failed check, write
   --report with the checks, and exit 1 when one fails. *)
let run_single ~cmd f ~n ~adversary ~config deploy =
  at_least "--horizon" 1 f.horizon;
  let engine =
    try Engine.create ~seed:f.seed ~n ~adversary () with Invalid_argument msg -> reject "%s" msg
  in
  List.iter
    (fun (pid, at) ->
      if pid < 0 || pid >= n then
        reject "--crash %d@%d: no such process (pids are 0..%d)" pid at (n - 1);
      Engine.schedule_crash engine pid ~at)
    (Option.value f.crashes ~default:[]);
  let metrics = Obs.Metrics.create () in
  let inst = Obs.Instrument.install ~metrics engine in
  let trace = Engine.trace engine in
  let sink =
    Option.map
      (fun path ->
        let s = io_or_die "trace" (fun () -> Obs.Sink.jsonl_file path) in
        Obs.Sink.attach trace s;
        (path, s))
      f.trace_out
  in
  let judge = deploy engine in
  let fault = Check.Runner.guarded_run engine ~until:f.horizon in
  if f.dump > 0 then Trace.dump ~limit:f.dump Format.std_formatter trace;
  Option.iter
    (fun path ->
      io_or_die "trace CSV" (fun () -> Trace.write_csv trace ~path);
      Printf.printf "trace written to %s\n" path)
    f.csv;
  let checks =
    match fault with
    | Some (c : Obs.Report.check) ->
        Printf.printf "%s: VIOLATED: %s\n" c.Obs.Report.name c.Obs.Report.detail;
        [ c ]
    | None -> judge ()
  in
  Obs.Instrument.finalize inst;
  Option.iter
    (fun (path, (s : Obs.Sink.t)) ->
      s.Obs.Sink.close ();
      Printf.printf "trace streamed to %s\n" path)
    sink;
  let crashes =
    Option.map (fun l -> ("crashes", Obs.Json.Arr (List.map (fun c -> Obs.Json.Str (pid_at c)) l)))
      f.crashes
  in
  write_report f.report (fun () ->
      Obs.Report.make ~cmd ~seed:f.seed ~horizon:f.horizon ~config:(config @ Option.to_list crashes)
        ~metrics ~checks ~wall:(Obs.Instrument.wall_json inst) ());
  if Check.Runner.failed checks <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* extract *)

let run_extract f adversary n box lemmas =
  at_least "-n" 2 n;
  let name, title, make_box =
    match box with
    | `Wf -> ("wf", "WF-◇WX", Core.Scenario.wf_box)
    | `Ftme -> ("ftme", "perpetual-WX (FTME)", Core.Scenario.ftme_box)
  in
  run_single ~cmd:"extract" f ~n ~adversary
    ~config:
      [
        ("n", Obs.Json.Int n);
        ("box", Obs.Json.Str name);
        ("adversary", Obs.Json.Str adversary.Adversary.name);
        ("lemmas", Obs.Json.Bool lemmas);
      ]
  @@ fun engine ->
  (* The extract-<box> targets' deployment (Check.Runner.plan). *)
  let run = Core.Scenario.extraction engine ~lemmas (make_box engine) in
  fun () ->
    let trace = Engine.trace engine in
    Printf.printf "extraction over %s box, n=%d, adversary=%s, horizon=%d\n" title n
      adversary.Adversary.name f.horizon;
    let crashed = Types.Pidmap.bindings (Trace.crash_times trace) in
    Printf.printf "crashed: %s\n" (String.concat ", " (List.map (fun c -> "p" ^ pid_at c) crashed));
    let grouped = Detectors.Properties.flips trace ~detector:"extracted" ~n in
    List.iter
      (fun pair ->
        let flips =
          Detectors.Properties.pair_flips grouped ~owner:pair.Reduction.Pair.watcher
            ~target:pair.Reduction.Pair.subject
        in
        Printf.printf "  p%d about p%d: %d flips, finally %s\n" pair.Reduction.Pair.watcher
          pair.Reduction.Pair.subject (List.length flips)
          (if pair.Reduction.Pair.suspected () then "suspects" else "trusts"))
      run.Core.Scenario.extract.Reduction.Extract.pairs;
    let checks = Check.Runner.extraction_checks ~trusting:(box = `Ftme) run in
    let properties, lemma_checks =
      List.partition
        (fun (c : Obs.Report.check) ->
          not (String.starts_with ~prefix:"lemmas." c.Obs.Report.name))
        checks
    in
    List.iter
      (fun (c : Obs.Report.check) ->
        Printf.printf "%-26s %s\n"
          (String.map (function '_' -> ' ' | ch -> ch) c.Obs.Report.name ^ ":")
          (if c.Obs.Report.holds then "OK" else "VIOLATED: " ^ c.Obs.Report.detail))
      properties;
    if lemmas then begin
      print_endline "lemma checks:";
      List.iter2
        (fun (pair, online) (c : Obs.Report.check) ->
          let name = pair.Reduction.Pair.name in
          if c.Obs.Report.holds then Printf.printf "  pair %s: all lemmas OK\n" name
          else
            Reduction.Lemmas.online_reports online @ Reduction.Lemmas.trace_reports ~engine ~pair
            |> List.iter (fun r ->
                   if not (Reduction.Lemmas.ok r) then
                     Format.printf "  pair %s: %a@." name Reduction.Lemmas.pp_report r))
        run.Core.Scenario.onlines lemma_checks
    end;
    checks

let extract_cmd =
  let n_t =
    Arg.(value & opt int 2 & info [ "n"; "procs" ] ~docv:"INT" ~doc:"Number of processes (>= 2).")
  in
  let box_t =
    let doc = "Black-box dining used by the reduction: wf (WF-◇WX, extracts ◇P) or ftme \
               (perpetual WX, extracts T)." in
    Arg.(value & opt (enum [ ("wf", `Wf); ("ftme", `Ftme) ]) `Wf & info [ "box" ] ~doc)
  in
  let lemmas_t =
    Arg.(value & flag & info [ "lemmas" ] ~doc:"Install and report the Lemma 1-12 monitors.")
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:
         "Run the failure-detector extraction (the paper's reduction). Exits 1 if a detector \
          property or, with --lemmas, a lemma check fails, or if a component raises.")
    Term.(
      const run_extract $ flags_t ~crashes:true ~debug:true 20000 $ adversary_t $ n_t $ box_t
      $ lemmas_t)

(* ------------------------------------------------------------------ *)
(* dining *)

(* The dining algorithms of Check.Runner.default_registry, in --algo's
   order, with the names the summary prints. *)
let dining_algos =
  [ ("hygienic", "hygienic"); ("wf", "wf-◇wx"); ("kfair", "k-fair"); ("ftme", "ftme"); ("fl1", "fl1") ]

let run_dining f adversary graph algo eat_ticks =
  let n = Graphs.Conflict_graph.n graph and horizon = f.horizon in
  let edges = List.length (Graphs.Conflict_graph.edges graph) in
  let instance = "din" in
  run_single ~cmd:"dining" f ~n ~adversary
    ~config:
      [
        ("algo", Obs.Json.Str algo);
        ("n", Obs.Json.Int n);
        ("edges", Obs.Json.Int edges);
        ("adversary", Obs.Json.Str adversary.Adversary.name);
        ("eat_ticks", Obs.Json.Int eat_ticks);
      ]
  @@ fun engine ->
  (List.assoc algo Check.Runner.default_registry) engine ~graph ~instance ~eat_ticks;
  fun () ->
    let ix = Dining.Monitor.Index.build (Engine.trace engine) ~instance in
    Printf.printf "dining %s on n=%d (%d edges), adversary=%s, horizon=%d\n"
      (List.assoc algo dining_algos) n edges adversary.Adversary.name horizon;
    for pid = 0 to n - 1 do
      Printf.printf "  p%d: %d meals%s\n" pid
        (Dining.Monitor.Index.eat_count ix ~pid)
        (if Engine.is_live engine pid then "" else " (crashed)")
    done;
    let violations = Dining.Monitor.Index.exclusion_violations ix ~graph ~horizon in
    Printf.printf "exclusion violations: %d%s\n" (List.length violations)
      (match List.rev violations with
      | v :: _ -> Printf.sprintf " (last at t=%d)" v.Dining.Monitor.at
      | [] -> "");
    let wf = Dining.Monitor.Index.wait_freedom ix ~n ~horizon ~slack:(horizon / 5) in
    Format.printf "wait-freedom: %a@." Detectors.Properties.pp_verdict wf;
    Printf.printf "max suffix overtaking (after t=%d): %d\n" (horizon / 2)
      (Dining.Monitor.Index.max_overtaking ix ~graph ~after:(horizon / 2) ~horizon);
    Printf.printf "crash locality: %s; fairness index: %.2f\n"
      (match Dining.Monitor.Index.failure_locality ix ~graph ~horizon ~slack:(horizon / 5) with
      | Some l -> string_of_int l
      | None -> "unbounded")
      (Dining.Monitor.Index.fairness_index ix ~pids:(List.init n Fun.id));
    let wx =
      Dining.Monitor.Index.eventual_weak_exclusion ix ~graph ~horizon ~suffix_from:(horizon / 2)
    in
    [ Obs.Report.of_verdict "wait_freedom" wf; Obs.Report.of_verdict "eventual_weak_exclusion" wx ]

let dining_cmd =
  let algo_t =
    let doc = "Algorithm: hygienic | wf | kfair | ftme | fl1." in
    Arg.(
      value
      & opt (enum (List.map (fun (name, _) -> (name, name)) dining_algos)) "wf"
      & info [ "algo" ] ~doc)
  in
  let eat_t =
    Arg.(value & opt int 3 & info [ "eat-ticks" ] ~docv:"TICKS" ~doc:"Length of a meal.")
  in
  Cmd.v
    (Cmd.info "dining"
       ~doc:
         "Run a dining algorithm and check its specification. Exits 1 if wait-freedom or \
          eventual weak exclusion fails, or if a component raises.")
    Term.(
      const run_dining $ flags_t ~crashes:true ~debug:true 12000 $ adversary_t $ topology_t
      $ algo_t $ eat_t)

(* ------------------------------------------------------------------ *)
(* vulnerability *)

let run_vulnerability f mode =
  let flawed = mode = `Flawed_cm in
  run_single ~cmd:"vulnerability" f ~n:2 ~adversary:(Adversary.partial_sync ~gst:500 ())
    ~config:[ ("mode", Obs.Json.Str (if flawed then "flawed" else "ours")) ]
  @@ fun engine ->
  let suspected = Core.Scenario.vulnerability engine ~mode in
  fun () ->
    let det = if flawed then "flawed-cm" else "extracted" in
    let flips = Trace.suspicion_flips (Engine.trace engine) ~detector:det ~owner:1 ~target:0 in
    Printf.printf "Section 3 scenario (%s): correct q=p0 eats forever from the noisy prefix\n"
      (if flawed then "construction of [8]" else "this paper");
    Printf.printf "suspicion flips about the correct q: %d\n" (List.length flips);
    Printf.printf "final attitude: %s\n" (if suspected () then "suspects q" else "trusts q");
    Printf.printf "verdict: %s\n"
      (if flawed then
         "accuracy violated — p keeps eating (box's exclusive suffix is void) and keeps \
          suspecting the correct q"
       else "converged — the hand-off keeps the subject's sessions overlapping");
    let late = List.filter (fun (t, _) -> t > f.horizon - (f.horizon / 5)) flips in
    [
      Obs.Report.check
        ~detail:
          (Printf.sprintf "%d flips total, %d in the last fifth" (List.length flips)
             (List.length late))
        "accuracy_converged" (late = []);
      Obs.Report.check "finally_trusts_correct_q" (not (suspected ()));
    ]

let vulnerability_cmd =
  let mode_t =
    let doc = "Construction: flawed (the [8] extraction) or ours (the paper's reduction)." in
    Arg.(
      value
      & opt (enum [ ("flawed", `Flawed_cm); ("ours", `Our_reduction) ]) `Flawed_cm
      & info [ "mode" ] ~doc)
  in
  Cmd.v
    (Cmd.info "vulnerability"
       ~doc:
         "Replay the Section 3 vulnerability scenario. Exits 1 when a check fails, as it does \
          for the flawed construction (the negative control), or when a component raises.")
    Term.(const run_vulnerability $ flags_t 20000 $ mode_t)

(* ------------------------------------------------------------------ *)
(* wsn *)

let run_wsn f scheduler areas nodes energy =
  at_least "--areas" 1 areas;
  at_least "--nodes" 1 nodes;
  at_least "--energy" 1 energy;
  let dining = scheduler = Wsn.Model.Dining and horizon = f.horizon in
  let config =
    {
      Wsn.Model.default_config with
      Wsn.Model.areas;
      nodes_per_area = nodes;
      initial_energy = energy;
    }
  in
  run_single ~cmd:"wsn" f ~n:(areas * nodes) ~adversary:(Adversary.partial_sync ~gst:300 ())
    ~config:
      [
        ("scheduler", Obs.Json.Str (if dining then "dining" else "all-on"));
        ("areas", Obs.Json.Int areas);
        ("nodes_per_area", Obs.Json.Int nodes);
        ("initial_energy", Obs.Json.Int energy);
      ]
  @@ fun engine ->
  let model = Wsn.Model.setup ~engine ~config ~scheduler () in
  fun () ->
    Printf.printf "WSN %dx%d, battery=%d, scheduler=%s\n" areas nodes energy
      (if dining then "wf-◇wx dining" else "all-on");
    let lifetime = Wsn.Model.lifetime model in
    (match lifetime with
    | Some t -> Printf.printf "network lifetime: %d ticks\n" t
    | None -> Printf.printf "network alive at horizon (%d)\n" horizon);
    List.iter
      (fun s ->
        if s.Wsn.Model.at mod max 1 (horizon / 10) < 50 then
          Printf.printf "  t=%-6d covered=%d/%d redundant=%d alive=%d\n" s.Wsn.Model.at
            s.Wsn.Model.covered areas s.Wsn.Model.redundant s.Wsn.Model.alive)
      (Wsn.Model.coverage_series model ~sample_every:50 ~horizon);
    (* Duty cycling at least doubles the lifetime of one battery, which is
       what an all-on network lives. *)
    let lived = Option.value lifetime ~default:horizon and bound = 2 * energy in
    let state = if lifetime = None then "alive" else "died" in
    [
      Obs.Report.check "outlives_two_batteries" (lived > bound)
        ~detail:(Printf.sprintf "%s at t=%d; two batteries last %d ticks" state lived bound);
    ]

let wsn_cmd =
  let scheduler_t =
    Arg.(
      value
      & opt (enum [ ("dining", Wsn.Model.Dining); ("all-on", Wsn.Model.All_on) ])
          Wsn.Model.Dining
      & info [ "scheduler" ] ~doc:"dining | all-on")
  in
  let areas_t = Arg.(value & opt int 3 & info [ "areas" ] ~doc:"Coverage areas.") in
  let nodes_t = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Nodes per area.") in
  let energy_t = Arg.(value & opt int 600 & info [ "energy" ] ~doc:"Battery (duty ticks).") in
  Cmd.v
    (Cmd.info "wsn"
       ~doc:
         "Sensor-network duty-cycle scheduling demo, checking that the network outlives two \
          batteries (2 x --energy ticks). Exits 1 when a check fails, as it does for the \
          all-on scheduler, or when a component raises.")
    Term.(const run_wsn $ flags_t 9000 $ scheduler_t $ areas_t $ nodes_t $ energy_t)

(* ------------------------------------------------------------------ *)
(* ctm *)

let run_ctm f clients with_cm =
  at_least "--clients" 1 clients;
  run_single ~cmd:"ctm" f ~n:(clients + 1) ~adversary:(Adversary.partial_sync ~gst:400 ())
    ~config:[ ("clients", Obs.Json.Int clients); ("contention_manager", Obs.Json.Bool with_cm) ]
  @@ fun engine ->
  let sys = Ctm.System.setup ~engine ~with_cm () in
  fun () ->
    let stats = List.map snd sys.Ctm.System.clients in
    Printf.printf "%d transactional clients, %s, horizon=%d\n" clients
      (if with_cm then "with contention manager" else "without contention manager")
      f.horizon;
    List.iter
      (fun (pid, (st : Ctm.Client.stats)) ->
        Printf.printf "  p%d: %d commits / %d aborts\n" pid st.Ctm.Client.commits
          st.Ctm.Client.aborts)
      sys.Ctm.System.clients;
    Printf.printf "store: %d successful CAS, %d failed\n" sys.Ctm.System.store.Ctm.Store.cas_ok
      sys.Ctm.System.store.Ctm.Store.cas_fail;
    let sum field = List.fold_left (fun acc st -> acc + field st) 0 stats in
    let commits = sum (fun st -> st.Ctm.Client.commits)
    and aborts = sum (fun st -> st.Ctm.Client.aborts) in
    let tally = Printf.sprintf "%d commits / %d aborts" commits aborts in
    [
      Obs.Report.check ~detail:tally "every_client_commits"
        (List.for_all (fun (st : Ctm.Client.stats) -> st.Ctm.Client.commits > 0) stats);
      (* The manager boosts the store to wait-free: once its ◇P converges
         every transaction runs alone, so aborts stay in the prefix. *)
      Obs.Report.check ~detail:tally "aborts_below_half_the_commits" (aborts < commits / 2);
    ]

let ctm_cmd =
  let clients_t = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Number of clients.") in
  let cm_t = Arg.(value & flag & info [ "no-cm" ] ~doc:"Disable the contention manager.") in
  Cmd.v
    (Cmd.info "ctm"
       ~doc:
         "Contention-manager transaction boost demo, checking that every client commits \
          and that aborts stay below half the commits. Exits 1 when a check fails, as it \
          does without the manager (--no-cm), or when a component raises.")
    Term.(const (fun f clients no_cm -> run_ctm f clients (not no_cm)) $ flags_t 12000
          $ clients_t $ cm_t)

(* ------------------------------------------------------------------ *)
(* agreement *)

let run_agreement f n source =
  at_least "-n" 2 n;
  let extracted = source = `Extracted in
  run_single ~cmd:"agreement" f ~n ~adversary:(Adversary.partial_sync ~gst:500 ())
    ~config:
      [
        ("n", Obs.Json.Int n);
        ("detector", Obs.Json.Str (if extracted then "extracted" else "native"));
      ]
  @@ fun engine ->
  let suspects_of =
    if extracted then begin
      let run = Core.Scenario.extraction engine ~lemmas:false (Core.Scenario.wf_box engine) in
      fun pid ->
        let oracle = Reduction.Extract.oracle run.Core.Scenario.extract pid in
        fun () -> oracle.Detectors.Oracle.suspects ()
    end
    else Core.Scenario.evp_suspects engine ~n ~windows:[]
  in
  let members = List.init n Fun.id in
  let instances =
    List.map
      (fun pid ->
        let ctx = Engine.ctx engine pid in
        let c = Agreement.Consensus.create ctx ~members ~suspects:(suspects_of pid) () in
        Engine.register engine pid c.Agreement.Consensus.component;
        c.Agreement.Consensus.propose (100 + pid);
        let l = Agreement.Leader.create ctx ~members ~suspects:(suspects_of pid) () in
        Engine.register engine pid l.Agreement.Leader.component;
        (pid, c, l))
      members
  in
  fun () ->
    Printf.printf "consensus + leader election over the %s detector, n=%d\n"
      (if extracted then "dining-extracted" else "native heartbeat")
      n;
    List.iter
      (fun (pid, c, l) ->
        if Engine.is_live engine pid then
          Printf.printf "  p%d: decided=%s leader=p%d\n" pid
            (match c.Agreement.Consensus.decided () with Some v -> string_of_int v | None -> "-")
            (l.Agreement.Leader.leader ()))
      instances;
    let agreement = Agreement.Consensus.agreement (Engine.trace engine) in
    Format.printf "agreement: %a@." Detectors.Properties.pp_verdict agreement;
    [
      Obs.Report.of_verdict "agreement" agreement;
      Obs.Report.check "all_correct_decided"
        (List.for_all
           (fun (pid, c, _) ->
             (not (Engine.is_live engine pid)) || c.Agreement.Consensus.decided () <> None)
           instances);
    ]

let agreement_cmd =
  let n_t =
    Arg.(value & opt int 3 & info [ "n"; "procs" ] ~docv:"INT" ~doc:"Number of processes (>= 2).")
  in
  let source_t =
    let doc = "Detector: native (heartbeat ◇P) or extracted (from black-box dining)." in
    Arg.(
      value
      & opt (enum [ ("native", `Native); ("extracted", `Extracted) ]) `Extracted
      & info [ "detector" ] ~doc)
  in
  Cmd.v
    (Cmd.info "agreement"
       ~doc:
         "Consensus and leader election over ◇P (native or extracted). Exits 1 when a check \
          fails or a component raises.")
    Term.(const run_agreement $ flags_t ~crashes:true 20000 $ n_t $ source_t)

(* ------------------------------------------------------------------ *)
(* certify *)

let run_certify box seeds horizon report =
  at_least "--seeds" 1 seeds;
  at_least "--horizon" 1 horizon;
  let name = if box = "none" then "hygienic" else box in
  let runs =
    Check.Runner.certify (List.assoc name Core.Scenario.boxes) ~seeds:(Core.Batch.seeds seeds)
      ~horizon
  in
  let checks =
    List.concat_map
      (fun ((c : Check.Config.t), checks) ->
        let run =
          Printf.sprintf "%s seed=%s crashes=%d" c.Check.Config.algo
            (Core.Cmdline.seed_to_string c.Check.Config.seed)
            (List.length c.Check.Config.crashes)
        in
        List.map
          (fun (ch : Obs.Report.check) ->
            { ch with Obs.Report.name = run ^ ": " ^ ch.Obs.Report.name })
          checks)
      runs
  in
  let certified = Check.Runner.failed checks = [] in
  Printf.printf "certification of the %s box (%d seeds, horizon %d, p1 crashes at %d):\n" name
    seeds horizon (horizon / 4);
  List.iter
    (fun (ch : Obs.Report.check) ->
      if ch.Obs.Report.holds then Printf.printf "  [pass] %s\n" ch.Obs.Report.name
      else Printf.printf "  [FAIL] %s: %s\n" ch.Obs.Report.name ch.Obs.Report.detail)
    checks;
  Printf.printf "verdict: %s\n"
    (if certified then "CERTIFIED — behaves as a WF-◇WX box; ◇P extracted" else "NOT certified");
  write_report report (fun () ->
      let config = [ ("box", Obs.Json.Str box); ("seeds", Obs.Json.Int seeds) ] in
      Obs.Report.make ~cmd:"certify" ~horizon ~config ~checks ());
  if not certified then exit 1

let certify_cmd =
  let box_t =
    let doc = "Candidate black box: wf | kfair | ftme | none (hygienic, the negative control)." in
    Arg.(
      value
      & opt (enum (List.map (fun b -> (b, b)) [ "wf"; "kfair"; "ftme"; "none" ])) "wf"
      & info [ "box" ] ~doc)
  in
  let seeds_t =
    Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds per check.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Check that a dining box behaves as a WF-◇WX box and that the reduction extracts ◇P \
          from it: per seed, the box's two diners with p1 crashing at horizon/4, judged by the \
          dining checks, and the reduction over the box without and with that crash, judged \
          by the extraction checks. Exits 1 when a check fails or a component raises.")
    Term.(const run_certify $ box_t $ seeds_t $ horizon_t 20000 $ report_t)

(* ------------------------------------------------------------------ *)
(* report — validate and summarise a run report *)

let run_report path =
  match Obs.Report.read_any ~path with
  | `Run j -> Format.printf "%a" Obs.Report.pp_summary j
  | `Campaign j -> Format.printf "%a" Obs.Report.pp_campaign_summary j
  | `Mc j -> Format.printf "%a" Obs.Report.pp_mc_summary j
  | exception (Failure msg | Sys_error msg) ->
      prerr_endline msg;
      exit 2

let report_cmd =
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Report to validate.")
  in
  let term = Term.(const run_report $ path_t) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Validate a dinersim-report/1 run report, dinersim-campaign/1 campaign summary or \
          dinersim-mc/1 model-checking report and print its summary. Exits 2 when the file \
          cannot be read or fails validation.")
    term

(* ------------------------------------------------------------------ *)
(* fuzz — randomized schedule-fuzzing campaign with shrinking *)

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* The one repro-artifact writer: save [r] as <dir>/<prefix><index>-<digest
   prefix>.json, and return the path and the digest. *)
let save_repro ~what ~dir ~prefix index r =
  io_or_die (what ^ " directory") (fun () -> ensure_dir dir);
  let digest = Check.Repro.digest r in
  let path =
    Filename.concat dir (Printf.sprintf "%s%04d-%s.json" prefix index (String.sub digest 0 12))
  in
  io_or_die (what ^ " artifact") (fun () -> Check.Repro.save ~path r);
  (path, digest)

let families_of_strings = function
  | [] -> Check.Config.all_families
  | l ->
      List.map
        (fun s ->
          match Check.Config.family_of_string s with
          | Some f -> f
          | None -> reject "unknown adversary family %S (sync|async|partial|bursty)" s)
        l

let run_fuzz seed runs max_repros max_horizon families algos jobs out corpus report =
  at_least "--jobs" 1 jobs;
  at_least "--runs" 0 runs;
  let registry = Check.Runner.default_registry in
  let families = families_of_strings families in
  let algos =
    match algos with
    | [] -> List.map fst registry
    | l ->
        let known = Check.Runner.target_names registry in
        List.iter
          (fun a ->
            if not (List.mem a known) then
              reject "unknown algorithm %S (known: %s)" a (String.concat ", " known))
          l;
        l
  in
  let corpus_cb =
    Option.map
      (fun dir ->
        io_or_die "corpus directory" (fun () -> ensure_dir dir);
        fun idx (r : Check.Repro.t) ->
          let path = Filename.concat dir (Printf.sprintf "run-%04d.json" idx) in
          io_or_die "corpus artifact" (fun () -> Check.Repro.save ~path r))
      corpus
  in
  let on_run idx c (o : Check.Runner.outcome) =
    if o.Check.Runner.failed <> [] then
      Printf.printf "run %04d VIOLATION [%s] %s\n%!" idx
        (String.concat ", " o.Check.Runner.failed)
        (Check.Config.describe c)
  in
  let result, total_s =
    Obs.Instrument.time (fun () ->
        Check.Campaign.run ~runs ~max_repros ~max_horizon ~families ~algos ~on_run
          ?corpus:corpus_cb ~jobs ~registry ~root_seed:seed ())
  in
  List.iter
    (fun (v : Check.Campaign.violation) ->
      match v.Check.Campaign.repro with
      | Some r ->
          let index = v.Check.Campaign.index in
          let path, digest = save_repro ~what:"repro" ~dir:out ~prefix:"run" index r in
          Printf.printf "  shrunk repro: %s\n    minimal: %s (digest %s)\n" path
            (Check.Config.describe r.Check.Repro.config)
            digest
      | None -> ())
    result.Check.Campaign.violations;
  Printf.printf "fuzz: %d runs, %d violations (root seed %s)\n" result.Check.Campaign.runs
    (List.length result.Check.Campaign.violations)
    (Core.Cmdline.seed_to_string seed);
  write_report report (fun () -> Check.Campaign.summary ~total_s ~cmd:"fuzz" result);
  if result.Check.Campaign.violations <> [] then exit 1

let fuzz_cmd =
  let runs_t =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Number of fuzzed runs.")
  in
  let max_repros_t =
    Arg.(
      value & opt int 3
      & info [ "max-repros" ] ~docv:"N" ~doc:"Shrink at most $(i,N) violations into artifacts.")
  in
  let max_horizon_t =
    Arg.(
      value & opt int 6000
      & info [ "max-horizon" ] ~docv:"TICKS" ~doc:"Upper bound on generated run horizons.")
  in
  let families_t =
    let doc = "Adversary families to draw from (comma-separated: sync,async,partial,bursty)." in
    Arg.(value & opt (list string) [] & info [ "families" ] ~docv:"LIST" ~doc)
  in
  let algos_t =
    let doc =
      "Targets to fuzz (comma-separated; default: every registered dining algorithm). The \
       reduction targets extract-wf, extract-kfair, extract-ftme and extract-hygienic (the \
       negative control) are accepted but not drawn by default."
    in
    Arg.(value & opt (list string) [] & info [ "algos" ] ~docv:"LIST" ~doc)
  in
  let out_t =
    Arg.(
      value & opt string "fuzz-repro"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for shrunk repro artifacts.")
  in
  let corpus_t =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Also save a replayable artifact for every run.")
  in
  let jobs_t =
    Arg.(
      value
      & opt int (Exec.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the campaign (default: the recommended domain count). \
             Verdicts, repro artifacts and the canonical report body are byte-identical \
             for every value; only wall-clock timings differ.")
  in
  let term =
    Term.(
      const run_fuzz $ seed_t $ runs_t $ max_repros_t $ max_horizon_t $ families_t $ algos_t
      $ jobs_t $ out_t $ corpus_t $ report_t)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a property-based schedule-fuzzing campaign (deterministic in --seed); on a \
          violation, shrink it to a minimal replayable artifact. Exits 1 if any run violated \
          a checked property.")
    term

(* ------------------------------------------------------------------ *)
(* replay — re-execute fuzz-repro artifacts *)

(* Every path is replayed and reported on its own line, in order (an
   error goes to stderr); the exit status is the worst outcome: 2 if a
   file could not be loaded or run, else 1 on a verdict mismatch, else 0. *)
let run_replay paths =
  let registry = Check.Runner.default_registry in
  let error msg =
    flush stdout;
    prerr_endline msg;
    2
  in
  let replay path =
    match Check.Repro.load ~path with
    | exception Failure msg -> error (path ^ ": " ^ msg)
    | exception Sys_error msg -> error msg
    | r -> (
        match Check.Repro.replay ~registry r with
        | Ok (o : Check.Runner.outcome) ->
            Printf.printf "%s: OK — %s; %d meals, %d events, verdicts match\n" path
              (Check.Config.describe r.Check.Repro.config)
              o.Check.Runner.meals o.Check.Runner.trace_events;
            0
        | Error mismatches ->
            Printf.printf "%s: VERDICT MISMATCH\n" path;
            List.iter (fun m -> Printf.printf "  %s\n" m) mismatches;
            1
        | exception Failure msg -> error (path ^ ": " ^ msg))
  in
  let worst = List.fold_left (fun worst path -> max worst (replay path)) 0 paths in
  if worst > 0 then exit worst

let replay_cmd =
  let paths_t =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"fuzz-repro/1 artifacts to re-execute.")
  in
  let term = Term.(const run_replay $ paths_t) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute fuzz-repro/1 artifacts bit-identically and verify the recorded property \
          verdicts, one line per file. Exits 2 if any file could not be loaded or run, else 1 \
          on a verdict mismatch. Only the built-in targets are registered, the dining \
          algorithms and the extract-* reduction targets: the \
          test/corpus/broken-wf-dropfork.json counterexample names the test-only \
          $(b,wf-dropfork) variant and replays under the test registry (dune runtest).")
    term

(* ------------------------------------------------------------------ *)
(* trace — render a run as a Chrome trace-event (Perfetto) document *)

let run_trace input output horizon =
  (* Classify the input: a fuzz-repro/1 artifact is re-executed (replay is
     bit-identical, so the rendered trace is the violating run's); any
     other whole-file JSON document has no trace inside; everything else
     is treated as a JSONL event stream from --trace-out. *)
  let refuse msg =
    Printf.eprintf "%s: %s\n" input msg;
    exit 2
  in
  let classified =
    match Obs.Json.read_file ~path:input with
    | j -> (
        match Obs.Json.find j "schema" with
        | Some (Obs.Json.Str s) when s = Check.Repro.schema_version -> `Repro j
        | Some (Obs.Json.Str s) -> `Other_schema s
        | _ -> `Jsonl)
    | exception Failure _ -> `Jsonl
    | exception Sys_error msg ->
        prerr_endline msg;
        exit 2
  in
  let trace, horizon =
    match classified with
    | `Other_schema s ->
        Printf.eprintf
          "dinersim: %s is a %S document, which carries no event trace; render a \
           fuzz-repro/1 artifact or a JSONL stream from --trace-out instead\n"
          input s;
        exit 2
    | `Repro j -> (
        let r = try Check.Repro.of_json j with Failure msg -> refuse msg in
        let drive =
          Adversary.replayer ~len:r.Check.Repro.len ~overrides:r.Check.Repro.overrides
        in
        match
          Check.Runner.run_traced ~drive ~registry:Check.Runner.default_registry
            r.Check.Repro.config
        with
        | _, trace ->
            ( trace,
              Some
                (Option.value ~default:r.Check.Repro.config.Check.Config.horizon horizon) )
        | exception Failure msg -> refuse msg)
    | `Jsonl -> (
        match Obs.Sink.read_jsonl input with
        | trace -> (trace, horizon)
        | exception Failure msg -> refuse msg)
  in
  let output =
    match output with
    | Some p -> p
    | None -> Filename.remove_extension (Filename.basename input) ^ ".perfetto.json"
  in
  let j = try Obs.Span.chrome_of_trace ?horizon trace with Invalid_argument msg -> refuse msg in
  let events =
    match Obs.Json.find j "traceEvents" with Some (Obs.Json.Arr l) -> List.length l | _ -> 0
  in
  io_or_die "trace document" (fun () -> Obs.Json.write_file ~path:output j);
  Printf.printf "perfetto trace written to %s (%d events from %d trace entries)\n" output
    events (Trace.length trace)

let trace_cmd =
  let input_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Input run: a fuzz-repro/1 artifact (re-executed deterministically) or a JSONL \
             event stream written by --trace-out.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:
            "Output path (default: the input's file name with a .perfetto.json extension, in \
             the current directory).")
  in
  let trace_horizon_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ] ~docv:"TICKS"
          ~doc:
            "Horizon at which still-open phase spans are cut (default: the repro's \
             configured horizon, or one tick past the last event).")
  in
  let term = Term.(const run_trace $ input_t $ out_t $ trace_horizon_t) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render a recorded run as a Chrome trace-event JSON document (openable in Perfetto \
          or chrome://tracing): one lane per process with its dining phase spans, plus \
          instants for suspicion flips, crashes and protocol notes.")
    term

(* ------------------------------------------------------------------ *)
(* check — bounded exhaustive model checking *)

let run_check algo topology horizon delta phi eat_ticks seed crash_budget crash_grid no_por
    max_schedules split_depth jobs out report =
  let registry = Check.Runner.default_registry in
  if not (List.mem_assoc algo registry) then
    if List.mem algo (Check.Runner.target_names registry) then
      reject "%s: check searches the dining algorithms only (see --algo)" algo
    else
      reject "unknown algorithm %S (known: %s)" algo (String.concat ", " (List.map fst registry));
  let topology =
    match Check.Config.topology_of_string topology with
    | Some t -> t
    | None -> reject "bad topology %S (pair | ring:N | clique:N | star:N | path:N)" topology
  in
  at_least "--delta" 1 delta;
  at_least "--phi" 1 phi;
  at_least "--jobs" 1 jobs;
  at_least "--max-schedules" 1 max_schedules;
  at_least "--split-depth" 0 split_depth;
  let base =
    {
      Check.Config.algo;
      topology;
      adversary = Check.Config.Dls { delta; phi };
      crashes = [];
      handicap = None;
      horizon;
      eat_ticks;
      seed;
    }
  in
  let mc =
    {
      Mc.Explore.base;
      por = not no_por;
      max_schedules;
      split_depth;
      jobs;
      crash_budget;
      crash_grid;
      collect_schedules = false;
    }
  in
  let total_crash_scheds = List.length (Mc.Explore.crash_schedules mc) in
  Printf.printf "check: %s\n%!" (Check.Config.describe base);
  let progress (s : Mc.Explore.stats) =
    Printf.printf "  crash schedule %d/%d: %d schedule(s), %d pruned, %d violation(s)%s\n%!"
      s.Mc.Explore.crash_schedules total_crash_scheds s.Mc.Explore.schedules
      s.Mc.Explore.pruned s.Mc.Explore.violation_count
      (if s.Mc.Explore.truncated then " [truncated]" else "")
  in
  let metrics = Obs.Metrics.create () in
  let result, total_s =
    Obs.Instrument.time (fun () -> Mc.Explore.run ~progress ~metrics ~registry mc)
  in
  let s = result.Mc.Explore.stats in
  List.iter
    (fun (v : Mc.Explore.violation) ->
      let path, digest =
        save_repro ~what:"counterexample" ~dir:out ~prefix:"cex" v.Mc.Explore.schedule_index
          v.Mc.Explore.repro
      in
      Printf.printf "  counterexample: schedule %d of crash schedule %d -> %s (digest %s)\n"
        v.Mc.Explore.schedule_index v.Mc.Explore.crash_index path digest)
    result.Mc.Explore.violations;
  Printf.printf "check: %d schedule(s) over %d crash schedule(s), %d pruned, %d violation(s)%s\n"
    s.Mc.Explore.schedules s.Mc.Explore.crash_schedules s.Mc.Explore.pruned
    s.Mc.Explore.violation_count
    (if s.Mc.Explore.truncated then " [TRUNCATED: raise --max-schedules]" else "");
  write_report report (fun () ->
      let wall = Obs.Json.Obj [ ("total_s", Obs.Json.Float total_s) ] in
      Mc.Report.make ~config:mc ~result ~metrics ~wall ());
  match result.Mc.Explore.violations with [] -> () | _ :: _ -> exit 1

let check_cmd =
  let algo_t =
    Arg.(
      value & opt string "wf"
      & info [ "algo" ] ~docv:"NAME"
          ~doc:
            "Dining algorithm to model-check. The extract-* reduction targets are refused: \
             the partial-order reduction reads the config's conflict graph, which does not \
             describe the reduction's all-pairs traffic, and Lemmas 7 and 11 read the short \
             horizons a search can exhaust as violations.")
  in
  let topology_t =
    Arg.(
      value & opt string "pair"
      & info [ "topology" ] ~docv:"SHAPE"
          ~doc:"Conflict graph: pair, ring:N, clique:N, star:N or path:N. Keep it tiny.")
  in
  let horizon_t =
    Arg.(
      value & opt int 12
      & info [ "horizon" ] ~docv:"TICKS"
          ~doc:
            "Tick bound of every explored run. The schedule tree grows exponentially in the \
             horizon; 10-16 is the practical exhaustive range.")
  in
  let delta_t =
    Arg.(
      value & opt int 2
      & info [ "delta" ] ~docv:"D"
          ~doc:"DLS message-delay bound: every delivery delay is enumerated over [1, D].")
  in
  let phi_t =
    Arg.(
      value & opt int 1
      & info [ "phi" ] ~docv:"PHI"
          ~doc:
            "DLS relative-speed bound: a live process takes a step at least every PHI ticks; \
             unforced step offers are enumerated over both outcomes. PHI=1 forces every step \
             (delay choices remain the only nondeterminism).")
  in
  let eat_t =
    Arg.(
      value & opt int 1
      & info [ "eat-ticks" ] ~docv:"N" ~doc:"Meal length of every greedy client.")
  in
  let crash_budget_t =
    Arg.(
      value & opt int 0
      & info [ "crash-budget" ] ~docv:"N"
          ~doc:"Also enumerate every crash schedule of at most $(i,N) crashes.")
  in
  let crash_grid_t =
    Arg.(
      value & opt int 4
      & info [ "crash-grid" ] ~docv:"TICKS" ~doc:"Tick spacing of candidate crash times.")
  in
  let no_por_t =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:"Disable the sleep-set partial-order reduction (explore every schedule).")
  in
  let max_schedules_t =
    Arg.(
      value & opt int 20000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Schedule budget per subtree; exceeding it marks the report truncated.")
  in
  let split_depth_t =
    Arg.(
      value & opt int 4
      & info [ "split-depth" ] ~docv:"N"
          ~doc:
            "Decision depth of the sequential root split that feeds the worker pool. Results \
             are byte-identical for any value; deeper splits expose more parallelism.")
  in
  let jobs_t =
    Arg.(
      value
      & opt int (Exec.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for subtree exploration. Verdicts, counterexample artifacts and \
             the canonical report body are byte-identical for every value.")
  in
  let out_t =
    Arg.(
      value & opt string "mc-repro"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for the first 16 counterexample repro artifacts.")
  in
  let term =
    Term.(
      const run_check $ algo_t $ topology_t $ horizon_t $ delta_t $ phi_t $ eat_t $ seed_t
      $ crash_budget_t $ crash_grid_t $ no_por_t $ max_schedules_t $ split_depth_t $ jobs_t
      $ out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check a bounded instance: enumerate every schedule of a \
          DLS-parametric adversary (message delays in [1, delta], steps at least every phi \
          ticks), run each through the dining property monitors, count every violation, and \
          save the first 16 counterexamples as replayable fuzz-repro/1 artifacts. Exits 1 if \
          a violation was found.")
    term

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "simulator for wait-free dining under eventual weak exclusion and the ◇P reduction" in
  let info = Cmd.info "dinersim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      extract_cmd; dining_cmd; vulnerability_cmd; wsn_cmd; ctm_cmd; agreement_cmd;
      certify_cmd; report_cmd; fuzz_cmd; check_cmd; replay_cmd; trace_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
