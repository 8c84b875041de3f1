(* dinersim — command-line driver for the simulator and the reduction.

   Subcommands:
     extract        run the ◇P (or T) extraction and report its properties
     dining         run a dining algorithm on a topology and check its specs
     vulnerability  replay the Section 3 scenario ([8] vs this paper)
     wsn            duty-cycle scheduling demo
     ctm            contention-manager boost demo
     fuzz           randomized schedule-fuzzing campaign with shrinking
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

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ pid; at ] -> (
        match (int_of_string_opt pid, int_of_string_opt at) with
        | Some pid, Some at -> Ok (pid, at)
        | _ -> Error (`Msg "expected PID@TICK"))
    | _ -> Error (`Msg "expected PID@TICK")
  in
  let print fmt (pid, at) = Format.fprintf fmt "%d@%d" pid at in
  Arg.conv (parse, print)

let crashes_t =
  let doc = "Crash process $(i,PID) at tick $(i,TICK) (repeatable), e.g. --crash 2@5000." in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@TICK" ~doc)

let topology_conv =
  let parse s =
    let module G = Graphs.Conflict_graph in
    match String.split_on_char ':' s with
    | [ "pair" ] -> Ok (G.pair ())
    | [ "ring"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 3 -> Ok (G.ring ~n)
        | _ -> Error (`Msg "ring:<n> expects n >= 3"))
    | [ "clique"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 2 -> Ok (G.clique ~n)
        | _ -> Error (`Msg "clique:<n> expects n >= 2"))
    | [ "star"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 2 -> Ok (G.star ~n)
        | _ -> Error (`Msg "star:<n> expects n >= 2"))
    | [ "path"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 2 -> Ok (G.path ~n)
        | _ -> Error (`Msg "path:<n> expects n >= 2"))
    | [ "grid"; dims ] -> (
        match String.split_on_char 'x' dims with
        | [ r; c ] -> (
            match (int_of_string_opt r, int_of_string_opt c) with
            | Some rows, Some cols when rows >= 1 && cols >= 1 -> Ok (G.grid ~rows ~cols)
            | _ -> Error (`Msg "grid:<r>x<c> expects positive integers"))
        | _ -> Error (`Msg "grid:<r>x<c>"))
    | _ -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print fmt g =
    Format.fprintf fmt "<graph n=%d edges=%d>" (Graphs.Conflict_graph.n g)
      (List.length (Graphs.Conflict_graph.edges g))
  in
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

let maybe_csv engine = function
  | Some path ->
      Dsim.Trace.write_csv (Dsim.Engine.trace engine) ~path;
      Printf.printf "trace written to %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Observability: --trace-out (streaming JSONL sink) and --report (JSON
   run report). Install before the run so the sink sees every event and
   the metrics hooks see every tick. *)

let trace_out_t =
  let doc = "Stream the run trace to $(i,PATH) as JSONL (one event object per line)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc)

let report_t =
  let doc = "Write a machine-readable JSON run report to $(i,PATH)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)

type obs = {
  metrics : Obs.Metrics.t;
  inst : Obs.Instrument.t;
  sink : (string * Obs.Sink.t) option;
  report_path : string option;
}

(* Fail file-open/write problems as a clean CLI error instead of an
   uncaught Sys_error traceback. *)
let io_or_die what f = try f () with Sys_error msg -> reject "cannot write %s: %s" what msg

let obs_install engine ~trace_out ~report =
  let metrics = Obs.Metrics.create () in
  let inst = Obs.Instrument.install ~metrics engine in
  let sink =
    Option.map
      (fun path ->
        let s = io_or_die "trace" (fun () -> Obs.Sink.jsonl_file path) in
        Obs.Sink.attach (Engine.trace engine) s;
        (path, s))
      trace_out
  in
  { metrics; inst; sink; report_path = report }

let obs_finish obs ~cmd ~seed ~horizon ~config ~checks =
  Obs.Instrument.finalize obs.inst;
  Option.iter
    (fun (path, (s : Obs.Sink.t)) ->
      s.Obs.Sink.close ();
      Printf.printf "trace streamed to %s\n" path)
    obs.sink;
  Option.iter
    (fun path ->
      let j =
        Obs.Report.make ~cmd ~seed ~horizon ~config ~metrics:obs.metrics ~checks
          ~wall:(Obs.Instrument.wall_json obs.inst) ()
      in
      io_or_die "report" (fun () -> Obs.Json.write_file ~path j);
      Printf.printf "report written to %s\n" path)
    obs.report_path

(* A run that a component's exception cut short (see
   Check.Runner.guarded_run) is judged by that one failed check alone:
   print it, write the report with it, exit 1. *)
let exit_on_fault obs ~cmd ~seed ~horizon ~config = function
  | None -> ()
  | Some (check : Obs.Report.check) ->
      Printf.printf "%s: VIOLATED: %s\n" check.Obs.Report.name check.Obs.Report.detail;
      obs_finish obs ~cmd ~seed ~horizon ~config ~checks:[ check ];
      exit 1

let crashes_config crashes =
  Obs.Json.Arr
    (List.map (fun (pid, at) -> Obs.Json.Str (Printf.sprintf "%d@%d" pid at)) crashes)

let apply_crashes engine crashes =
  let n = Engine.n engine in
  List.iter
    (fun (pid, at) ->
      if pid < 0 || pid >= n then
        reject "--crash %d@%d: no such process (pids are 0..%d)" pid at (n - 1);
      Engine.schedule_crash engine pid ~at)
    crashes

let maybe_dump engine n =
  if n > 0 then Trace.dump ~limit:n Format.std_formatter (Engine.trace engine)

(* ------------------------------------------------------------------ *)
(* extract *)

let run_extract seed horizon adversary crashes n box lemmas dump csv trace_out report =
  if n < 2 then reject "-n must be at least 2 (got %d)" n;
  let run =
    match box with
    | `Wf -> Core.Scenario.wf_extraction ~seed ~adversary ~with_lemma_monitors:lemmas ~n ()
    | `Ftme -> Core.Scenario.ftme_extraction ~seed ~adversary ~n ()
  in
  let engine = run.Core.Scenario.engine in
  apply_crashes engine crashes;
  let obs = obs_install engine ~trace_out ~report in
  let config =
    [
      ("n", Obs.Json.Int n);
      ("box", Obs.Json.Str (match box with `Wf -> "wf" | `Ftme -> "ftme"));
      ("adversary", Obs.Json.Str adversary.Adversary.name);
      ("lemmas", Obs.Json.Bool lemmas);
      ("crashes", crashes_config crashes);
    ]
  in
  let fault = Check.Runner.guarded_run engine ~until:horizon in
  maybe_dump engine dump;
  maybe_csv engine csv;
  exit_on_fault obs ~cmd:"extract" ~seed ~horizon ~config fault;
  let trace = Engine.trace engine in
  Printf.printf "extraction over %s box, n=%d, adversary=%s, horizon=%d\n"
    (match box with `Wf -> "WF-◇WX" | `Ftme -> "perpetual-WX (FTME)")
    n adversary.Adversary.name horizon;
  Printf.printf "crashed: %s\n"
    (String.concat ", "
       (List.map
          (fun (pid, at) -> Printf.sprintf "p%d@%d" pid at)
          (Types.Pidmap.bindings (Trace.crash_times trace))));
  List.iter
    (fun pair ->
      let flips =
        Trace.suspicion_flips trace ~detector:"extracted" ~owner:pair.Reduction.Pair.watcher
          ~target:pair.Reduction.Pair.subject
      in
      Printf.printf "  p%d about p%d: %d flips, finally %s\n" pair.Reduction.Pair.watcher
        pair.Reduction.Pair.subject (List.length flips)
        (if pair.Reduction.Pair.suspected () then "suspects" else "trusts"))
    run.Core.Scenario.extract.Reduction.Extract.pairs;
  let checks = Check.Runner.extraction_checks ~trusting:(box = `Ftme) run in
  let properties, lemma_checks =
    List.partition
      (fun (c : Obs.Report.check) -> not (String.starts_with ~prefix:"lemmas." c.Obs.Report.name))
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
  obs_finish obs ~cmd:"extract" ~seed ~horizon ~config ~checks;
  if not (List.for_all (fun (c : Obs.Report.check) -> c.Obs.Report.holds) checks) then exit 1

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
  let term =
    Term.(
      const run_extract $ seed_t $ horizon_t 20000 $ adversary_t $ crashes_t $ n_t $ box_t
      $ lemmas_t $ dump_trace_t $ csv_t $ trace_out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:
         "Run the failure-detector extraction (the paper's reduction). Exits 1 if a detector \
          property or, with --lemmas, a lemma check fails, or if a component raises.")
    term

(* ------------------------------------------------------------------ *)
(* dining *)

(* The dining algorithms of Check.Runner.default_registry, in --algo's
   order, with the names the summary prints. *)
let dining_algos =
  [ ("hygienic", "hygienic"); ("wf", "wf-◇wx"); ("kfair", "k-fair"); ("ftme", "ftme"); ("fl1", "fl1") ]

let run_dining seed horizon adversary crashes graph algo eat_ticks dump csv trace_out report =
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary () in
  apply_crashes engine crashes;
  let obs = obs_install engine ~trace_out ~report in
  let instance = "din" in
  (List.assoc algo Check.Runner.default_registry) engine ~graph ~instance ~eat_ticks;
  let config =
    [
      ("algo", Obs.Json.Str algo);
      ("n", Obs.Json.Int n);
      ("edges", Obs.Json.Int (List.length (Graphs.Conflict_graph.edges graph)));
      ("adversary", Obs.Json.Str adversary.Adversary.name);
      ("eat_ticks", Obs.Json.Int eat_ticks);
      ("crashes", crashes_config crashes);
    ]
  in
  let fault = Check.Runner.guarded_run engine ~until:horizon in
  maybe_dump engine dump;
  maybe_csv engine csv;
  exit_on_fault obs ~cmd:"dining" ~seed ~horizon ~config fault;
  let ix = Dining.Monitor.Index.build (Engine.trace engine) ~instance in
  Printf.printf "dining %s on n=%d (%d edges), adversary=%s, horizon=%d\n"
    (List.assoc algo dining_algos) n
    (List.length (Graphs.Conflict_graph.edges graph))
    adversary.Adversary.name horizon;
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
  let checks =
    [ Obs.Report.of_verdict "wait_freedom" wf; Obs.Report.of_verdict "eventual_weak_exclusion" wx ]
  in
  obs_finish obs ~cmd:"dining" ~seed ~horizon ~config ~checks;
  if not (List.for_all (fun (c : Obs.Report.check) -> c.Obs.Report.holds) checks) then exit 1

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
  let term =
    Term.(
      const run_dining $ seed_t $ horizon_t 12000 $ adversary_t $ crashes_t $ topology_t
      $ algo_t $ eat_t $ dump_trace_t $ csv_t $ trace_out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "dining"
       ~doc:
         "Run a dining algorithm and check its specification. Exits 1 if wait-freedom or \
          eventual weak exclusion fails, or if a component raises.")
    term

(* ------------------------------------------------------------------ *)
(* vulnerability *)

let run_vulnerability seed horizon mode trace_out report =
  let engine, suspected = Core.Scenario.vulnerability ~seed ~mode () in
  let obs = obs_install engine ~trace_out ~report in
  let config =
    [ ("mode", Obs.Json.Str (match mode with `Flawed_cm -> "flawed" | `Our_reduction -> "ours")) ]
  in
  exit_on_fault obs ~cmd:"vulnerability" ~seed ~horizon ~config
    (Check.Runner.guarded_run engine ~until:horizon);
  let det = match mode with `Flawed_cm -> "flawed-cm" | `Our_reduction -> "extracted" in
  let flips = Trace.suspicion_flips (Engine.trace engine) ~detector:det ~owner:1 ~target:0 in
  Printf.printf
    "Section 3 scenario (%s): correct q=p0 eats forever from the noisy prefix\n"
    (match mode with `Flawed_cm -> "construction of [8]" | `Our_reduction -> "this paper");
  Printf.printf "suspicion flips about the correct q: %d\n" (List.length flips);
  Printf.printf "final attitude: %s\n" (if suspected () then "suspects q" else "trusts q");
  Printf.printf "verdict: %s\n"
    (match mode with
    | `Flawed_cm ->
        "accuracy violated — p keeps eating (box's exclusive suffix is void) and keeps \
         suspecting the correct q"
    | `Our_reduction -> "converged — the hand-off keeps the subject's sessions overlapping");
  let late = List.filter (fun (t, _) -> t > horizon - (horizon / 5)) flips in
  obs_finish obs ~cmd:"vulnerability" ~seed ~horizon ~config
    ~checks:
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
  let term =
    Term.(const run_vulnerability $ seed_t $ horizon_t 20000 $ mode_t $ trace_out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "vulnerability"
       ~doc:"Replay the Section 3 vulnerability scenario. Exits 1 if a component raises.")
    term

(* ------------------------------------------------------------------ *)
(* wsn *)

let run_wsn seed horizon scheduler areas nodes energy trace_out report =
  let config =
    {
      Wsn.Model.default_config with
      Wsn.Model.areas;
      nodes_per_area = nodes;
      initial_energy = energy;
    }
  in
  let n = areas * nodes in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) () in
  let obs = obs_install engine ~trace_out ~report in
  let model = Wsn.Model.setup ~engine ~config ~scheduler () in
  let report_config =
    [
      ( "scheduler",
        Obs.Json.Str
          (match scheduler with Wsn.Model.Dining -> "dining" | Wsn.Model.All_on -> "all-on") );
      ("areas", Obs.Json.Int areas);
      ("nodes_per_area", Obs.Json.Int nodes);
      ("initial_energy", Obs.Json.Int energy);
    ]
  in
  exit_on_fault obs ~cmd:"wsn" ~seed ~horizon ~config:report_config
    (Check.Runner.guarded_run engine ~until:horizon);
  Printf.printf "WSN %dx%d, battery=%d, scheduler=%s\n" areas nodes energy
    (match scheduler with Wsn.Model.Dining -> "wf-◇wx dining" | Wsn.Model.All_on -> "all-on");
  (match Wsn.Model.lifetime model with
  | Some t -> Printf.printf "network lifetime: %d ticks\n" t
  | None -> Printf.printf "network alive at horizon (%d)\n" horizon);
  List.iter
    (fun s ->
      if s.Wsn.Model.at mod (horizon / 10) < 50 then
        Printf.printf "  t=%-6d covered=%d/%d redundant=%d alive=%d\n" s.Wsn.Model.at
          s.Wsn.Model.covered areas s.Wsn.Model.redundant s.Wsn.Model.alive)
    (Wsn.Model.coverage_series model ~sample_every:50 ~horizon);
  let lifetime = Wsn.Model.lifetime model in
  obs_finish obs ~cmd:"wsn" ~seed ~horizon ~config:report_config
    ~checks:
      [
        Obs.Report.check
          ~detail:
            (match lifetime with
            | Some t -> Printf.sprintf "network died at t=%d" t
            | None -> "alive at horizon")
          "network_alive_at_horizon" (lifetime = None);
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
  let term =
    Term.(
      const run_wsn $ seed_t $ horizon_t 9000 $ scheduler_t $ areas_t $ nodes_t $ energy_t
      $ trace_out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "wsn"
       ~doc:"Sensor-network duty-cycle scheduling demo. Exits 1 if a component raises.")
    term

(* ------------------------------------------------------------------ *)
(* ctm *)

let run_ctm seed horizon clients with_cm trace_out report =
  let n = clients + 1 in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:400 ()) () in
  let obs = obs_install engine ~trace_out ~report in
  let store_comp, store_stats = Ctm.Store.component (Engine.ctx engine 0) () in
  Engine.register engine 0 store_comp;
  let client_pids = List.init clients (fun i -> i + 1) in
  let graph =
    Graphs.Conflict_graph.of_edges ~n
      (List.concat_map
         (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) client_pids)
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
        let comp, st = Ctm.Client.component ctx ~store:0 ?cm () in
        Engine.register engine pid comp;
        (pid, st))
      client_pids
  in
  let config =
    [ ("clients", Obs.Json.Int clients); ("contention_manager", Obs.Json.Bool with_cm) ]
  in
  exit_on_fault obs ~cmd:"ctm" ~seed ~horizon ~config
    (Check.Runner.guarded_run engine ~until:horizon);
  Printf.printf "%d transactional clients, %s, horizon=%d\n" clients
    (if with_cm then "with contention manager" else "without contention manager")
    horizon;
  List.iter
    (fun (pid, (st : Ctm.Client.stats)) ->
      Printf.printf "  p%d: %d commits / %d aborts\n" pid st.Ctm.Client.commits
        st.Ctm.Client.aborts)
    stats;
  Printf.printf "store: %d successful CAS, %d failed\n" store_stats.Ctm.Store.cas_ok
    store_stats.Ctm.Store.cas_fail;
  let min_commits =
    List.fold_left
      (fun acc (_, (st : Ctm.Client.stats)) -> min acc st.Ctm.Client.commits)
      max_int stats
  in
  let commits =
    List.fold_left (fun acc (_, (st : Ctm.Client.stats)) -> acc + st.Ctm.Client.commits) 0 stats
  in
  let aborts =
    List.fold_left (fun acc (_, (st : Ctm.Client.stats)) -> acc + st.Ctm.Client.aborts) 0 stats
  in
  obs_finish obs ~cmd:"ctm" ~seed ~horizon ~config
    ~checks:
      [
        Obs.Report.check
          ~detail:(Printf.sprintf "%d commits / %d aborts" commits aborts)
          "every_client_commits" (min_commits > 0);
      ]

let ctm_cmd =
  let clients_t = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Number of clients.") in
  let cm_t = Arg.(value & flag & info [ "no-cm" ] ~doc:"Disable the contention manager.") in
  let term =
    Term.(
      const (fun seed horizon clients no_cm trace_out report ->
          run_ctm seed horizon clients (not no_cm) trace_out report)
      $ seed_t $ horizon_t 12000 $ clients_t $ cm_t $ trace_out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "ctm"
       ~doc:"Contention-manager transaction boost demo. Exits 1 if a component raises.")
    term

(* ------------------------------------------------------------------ *)
(* agreement *)

let run_agreement seed horizon crashes n source trace_out report =
  if n < 2 then reject "-n must be at least 2 (got %d)" n;
  let engine, suspects_of =
    match source with
    | `Extracted ->
        let run = Core.Scenario.wf_extraction ~seed ~with_lemma_monitors:false ~n () in
        ( run.Core.Scenario.engine,
          fun pid ->
            let oracle = Reduction.Extract.oracle run.Core.Scenario.extract pid in
            fun () -> oracle.Detectors.Oracle.suspects () )
    | `Native ->
        let engine =
          Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:500 ()) ()
        in
        (engine, Core.Scenario.evp_suspects engine ~n ~windows:[])
  in
  apply_crashes engine crashes;
  let obs = obs_install engine ~trace_out ~report in
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
  let config =
    [
      ("n", Obs.Json.Int n);
      ( "detector",
        Obs.Json.Str (match source with `Native -> "native" | `Extracted -> "extracted") );
      ("crashes", crashes_config crashes);
    ]
  in
  exit_on_fault obs ~cmd:"agreement" ~seed ~horizon ~config
    (Check.Runner.guarded_run engine ~until:horizon);
  Printf.printf "consensus + leader election over the %s detector, n=%d\n"
    (match source with `Native -> "native heartbeat" | `Extracted -> "dining-extracted")
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
  let all_correct_decided =
    List.for_all
      (fun (pid, c, _) ->
        (not (Engine.is_live engine pid)) || c.Agreement.Consensus.decided () <> None)
      instances
  in
  obs_finish obs ~cmd:"agreement" ~seed ~horizon ~config
    ~checks:
      [
        Obs.Report.of_verdict "agreement" agreement;
        Obs.Report.check "all_correct_decided" all_correct_decided;
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
  let term =
    Term.(
      const run_agreement $ seed_t $ horizon_t 20000 $ crashes_t $ n_t $ source_t
      $ trace_out_t $ report_t)
  in
  Cmd.v
    (Cmd.info "agreement"
       ~doc:
         "Consensus and leader election over ◇P (native or extracted). Exits 1 if a \
          component raises.")
    term

(* ------------------------------------------------------------------ *)
(* certify *)

let run_certify box seeds horizon report_path =
  if seeds < 1 then reject "--seeds must be at least 1 (got %d)" seeds;
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
  let certified = List.for_all (fun (ch : Obs.Report.check) -> ch.Obs.Report.holds) checks in
  Printf.printf "certification of the %s box (%d seeds, horizon %d, p1 crashes at %d):\n" name
    seeds horizon (horizon / 4);
  List.iter
    (fun (ch : Obs.Report.check) ->
      if ch.Obs.Report.holds then Printf.printf "  [pass] %s\n" ch.Obs.Report.name
      else Printf.printf "  [FAIL] %s: %s\n" ch.Obs.Report.name ch.Obs.Report.detail)
    checks;
  Printf.printf "verdict: %s\n"
    (if certified then "CERTIFIED — behaves as a WF-◇WX box; ◇P extracted" else "NOT certified");
  Option.iter
    (fun path ->
      let config = [ ("box", Obs.Json.Str box); ("seeds", Obs.Json.Int seeds) ] in
      io_or_die "report" (fun () ->
          Obs.Json.write_file ~path (Obs.Report.make ~cmd:"certify" ~horizon ~config ~checks ()));
      Printf.printf "report written to %s\n" path)
    report_path;
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
  let term =
    Term.(const run_certify $ box_t $ seeds_t $ horizon_t 20000 $ report_t)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Check that a dining box behaves as a WF-◇WX box and that the reduction extracts ◇P \
          from it: per seed, the box's two diners with p1 crashing at horizon/4, judged by the \
          dining checks, and the reduction over the box without and with that crash, judged \
          by the extraction checks. Exits 1 when a check fails or a component raises.")
    term

(* ------------------------------------------------------------------ *)
(* report — validate and summarise a run report *)

let run_report path =
  match Obs.Report.read_any ~path with
  | `Run j -> Format.printf "%a" Obs.Report.pp_summary j
  | `Campaign j -> Format.printf "%a" Obs.Report.pp_campaign_summary j
  | `Mc j -> Format.printf "%a" Obs.Report.pp_mc_summary j
  | exception Failure msg ->
      prerr_endline msg;
      exit 2
  | exception Sys_error msg ->
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

let families_of_strings = function
  | [] -> Check.Config.all_families
  | l ->
      List.map
        (fun s ->
          match Check.Config.family_of_string s with
          | Some f -> f
          | None -> reject "unknown adversary family %S (sync|async|partial|bursty)" s)
        l

let run_fuzz seed runs max_repros max_horizon families algos jobs out corpus report_path =
  if jobs < 1 then reject "--jobs must be at least 1 (got %d)" jobs;
  if runs < 0 then reject "--runs must be at least 0 (got %d)" runs;
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
          io_or_die "repro directory" (fun () -> ensure_dir out);
          let digest = Check.Repro.digest r in
          let path =
            Filename.concat out
              (Printf.sprintf "run%04d-%s.json" v.Check.Campaign.index (String.sub digest 0 12))
          in
          io_or_die "repro artifact" (fun () -> Check.Repro.save ~path r);
          Printf.printf "  shrunk repro: %s\n    minimal: %s (digest %s)\n" path
            (Check.Config.describe r.Check.Repro.config)
            digest
      | None -> ())
    result.Check.Campaign.violations;
  Printf.printf "fuzz: %d runs, %d violations (root seed %s)\n" result.Check.Campaign.runs
    (List.length result.Check.Campaign.violations)
    (Core.Cmdline.seed_to_string seed);
  Option.iter
    (fun path ->
      io_or_die "report" (fun () ->
          Obs.Json.write_file ~path (Check.Campaign.summary ~total_s ~cmd:"fuzz" result));
      Printf.printf "report written to %s\n" path)
    report_path;
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
        let r =
          match Check.Repro.of_json j with
          | r -> r
          | exception Failure msg ->
              Printf.eprintf "%s: %s\n" input msg;
              exit 2
        in
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
        | exception Failure msg ->
            Printf.eprintf "%s: %s\n" input msg;
            exit 2)
    | `Jsonl -> (
        match Obs.Sink.read_jsonl input with
        | trace -> (trace, horizon)
        | exception Failure msg ->
            Printf.eprintf "%s: %s\n" input msg;
            exit 2)
  in
  let output =
    match output with
    | Some p -> p
    | None -> Filename.remove_extension (Filename.basename input) ^ ".perfetto.json"
  in
  let j =
    match Obs.Span.chrome_of_trace ?horizon trace with
    | j -> j
    | exception Invalid_argument msg ->
        Printf.eprintf "%s: %s\n" input msg;
        exit 2
  in
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
    max_schedules split_depth jobs out report_path =
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
  if delta < 1 || phi < 1 then reject "--delta and --phi must be at least 1";
  if jobs < 1 then reject "--jobs must be at least 1 (got %d)" jobs;
  if max_schedules < 1 then reject "--max-schedules must be at least 1 (got %d)" max_schedules;
  if split_depth < 0 then reject "--split-depth must be at least 0 (got %d)" split_depth;
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
      io_or_die "counterexample directory" (fun () -> ensure_dir out);
      let digest = Check.Repro.digest v.Mc.Explore.repro in
      let path =
        Filename.concat out
          (Printf.sprintf "cex%04d-%s.json" v.Mc.Explore.schedule_index
             (String.sub digest 0 12))
      in
      io_or_die "counterexample artifact" (fun () -> Check.Repro.save ~path v.Mc.Explore.repro);
      Printf.printf "  counterexample: schedule %d of crash schedule %d -> %s (digest %s)\n"
        v.Mc.Explore.schedule_index v.Mc.Explore.crash_index path digest)
    result.Mc.Explore.violations;
  Printf.printf "check: %d schedule(s) over %d crash schedule(s), %d pruned, %d violation(s)%s\n"
    s.Mc.Explore.schedules s.Mc.Explore.crash_schedules s.Mc.Explore.pruned
    s.Mc.Explore.violation_count
    (if s.Mc.Explore.truncated then " [TRUNCATED: raise --max-schedules]" else "");
  Option.iter
    (fun path ->
      let wall = Obs.Json.Obj [ ("total_s", Obs.Json.Float total_s) ] in
      io_or_die "report" (fun () ->
          Obs.Json.write_file ~path (Mc.Report.make ~config:mc ~result ~metrics ~wall ()));
      Printf.printf "report written to %s\n" path)
    report_path;
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
