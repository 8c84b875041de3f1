open Dsim

type builder =
  Engine.t -> graph:Graphs.Conflict_graph.t -> instance:string -> eat_ticks:int -> unit

type registry = (string * builder) list

type outcome = {
  checks : Obs.Report.check list;
  failed : string list;
  meals : int;
  trace_events : int;
  coverage : Obs.Coverage.t;
}

let instance = "fz"

let with_evp make engine ~graph ~instance ~eat_ticks =
  let n = Graphs.Conflict_graph.n graph in
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle = make ctx ~graph ~instance ~suspects:(suspects pid) in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let wf_builder =
  with_evp (fun ctx ~graph ~instance ~suspects ->
      let c, h, _ = Dining.Wf_ewx.component ctx ~instance ~graph ~suspects () in
      (c, h))

let kfair_builder =
  with_evp (fun ctx ~graph ~instance ~suspects ->
      let c, h, _ = Dining.Kfair.component ctx ~instance ~graph ~suspects () in
      (c, h))

let fl1_builder =
  with_evp (fun ctx ~graph ~instance ~suspects ->
      Dining.Fl1.component ctx ~instance ~graph ~suspects ())

let hygienic_builder engine ~graph ~instance ~eat_ticks =
  let n = Graphs.Conflict_graph.n graph in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ = Dining.Hygienic.component ctx ~instance ~graph () in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let ftme_builder engine ~graph ~instance ~eat_ticks =
  let n = Graphs.Conflict_graph.n graph in
  let members = List.init n Fun.id in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, oracle = Detectors.Ground_truth.trusting ctx ~peers:members () in
    Engine.register engine pid comp;
    let dcomp, handle, _ =
      Dining.Ftme.component ctx ~instance ~members
        ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
        ()
    in
    Engine.register engine pid dcomp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let default_registry =
  [
    ("wf", wf_builder);
    ("kfair", kfair_builder);
    ("fl1", fl1_builder);
    ("hygienic", hygienic_builder);
    ("ftme", ftme_builder);
  ]

let run_traced ?drive ?metrics ~registry (c : Config.t) =
  let builder =
    match List.assoc_opt c.Config.algo registry with
    | Some b -> b
    | None -> failwith (Printf.sprintf "Runner.run: unknown algorithm %S" c.Config.algo)
  in
  let graph = Config.graph c in
  let n = Graphs.Conflict_graph.n graph in
  let base = Config.to_adversary c in
  let adversary = match drive with Some ctl -> Adversary.drive ctl base | None -> base in
  let engine = Engine.create ~seed:c.Config.seed ~n ~adversary () in
  (* Instrumentation must be installed before components register so its
     on_tick hook and trace subscriber see the whole run. *)
  let inst = Option.map (fun metrics -> Obs.Instrument.install ~metrics engine) metrics in
  (* The coverage collector likewise subscribes before any component can
     log, so the signature spans the whole event stream. *)
  let cov = Obs.Coverage.create () in
  Obs.Coverage.attach cov (Engine.trace engine);
  builder engine ~graph ~instance ~eat_ticks:c.Config.eat_ticks;
  List.iter
    (fun (pid, at) -> if pid >= 0 && pid < n then Engine.schedule_crash engine pid ~at)
    c.Config.crashes;
  (* A component that raises breaks the run, not the campaign: the run's
     one verdict is then the exception, with the tick it escaped at, and
     the dining checks are not judged on the cut-short trace. *)
  let raised =
    match Engine.run engine ~until:c.Config.horizon with
    | () -> None
    | exception
        (( Invalid_argument _ | Failure _ | Not_found | Assert_failure _ | Match_failure _
         | Division_by_zero ) as exn) ->
        Some
          (Obs.Report.check "no_exception" false
             ~detail:(Printf.sprintf "t=%d: %s" (Engine.now engine) (Printexc.to_string exn)))
  in
  Option.iter Obs.Instrument.finalize inst;
  let trace = Engine.trace engine in
  let horizon = c.Config.horizon in
  let ix = Dining.Monitor.Index.build trace ~instance in
  let checks =
    match raised with
    | Some check -> [ check ]
    | None ->
        [
          Obs.Report.of_verdict "wait_freedom"
            (Dining.Monitor.Index.wait_freedom ix ~n ~horizon ~slack:(horizon / 3));
          Obs.Report.of_verdict "eventual_weak_exclusion"
            (Dining.Monitor.Index.eventual_weak_exclusion ix ~graph ~horizon
               ~suffix_from:(horizon / 2));
          Obs.Report.of_verdict "exiting_finite"
            (Dining.Monitor.Index.exiting_finite ix ~n ~horizon ~slack:(horizon / 3));
        ]
  in
  let failed =
    List.filter_map
      (fun (ch : Obs.Report.check) -> if ch.Obs.Report.holds then None else Some ch.Obs.Report.name)
      checks
  in
  let meals = ref 0 in
  for pid = 0 to n - 1 do
    meals := !meals + Dining.Monitor.Index.eat_count ix ~pid
  done;
  ( {
      checks;
      failed;
      meals = !meals;
      trace_events = Trace.length trace;
      coverage = Obs.Coverage.snapshot cov;
    },
    trace )

let run ?drive ?metrics ~registry c = fst (run_traced ?drive ?metrics ~registry c)
