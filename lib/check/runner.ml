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

(* A component that raises breaks the run, not the caller: the run's one
   verdict is then the exception, with the tick it escaped at. *)
let guarded_run engine ~until =
  match Engine.run engine ~until with
  | () -> None
  | exception
      (( Invalid_argument _ | Failure _ | Not_found | Assert_failure _ | Match_failure _
       | Division_by_zero ) as exn) ->
      Some
        (Obs.Report.check "no_exception" false
           ~detail:(Printf.sprintf "t=%d: %s" (Engine.now engine) (Printexc.to_string exn)))

type plan = {
  config : Config.t;
  builder : builder;
  graph : Graphs.Conflict_graph.t;
  n : int;
  adversary : Adversary.t;
}

let plan ?drive ~registry (c : Config.t) =
  let builder =
    match List.assoc_opt c.Config.algo registry with
    | Some b -> b
    | None -> failwith (Printf.sprintf "Runner.run: unknown algorithm %S" c.Config.algo)
  in
  let graph = Config.graph c in
  let base = Config.to_adversary c in
  let adversary = match drive with Some ctl -> Adversary.drive ctl base | None -> base in
  { config = c; builder; graph; n = Graphs.Conflict_graph.n graph; adversary }

(* The verdicts of a green run, shared by every run that has them. *)
let green =
  [
    Obs.Report.check "wait_freedom" true;
    Obs.Report.check "eventual_weak_exclusion" true;
    Obs.Report.check "exiting_finite" true;
  ]

let pass (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

(* One run of the plan: a fresh engine, the deployment, the crashes, the
   guarded run and the dining checks, which are not judged on a trace an
   exception cut short. *)
let execute ?metrics p =
  let c = p.config in
  let engine = Engine.create ~seed:c.Config.seed ~n:p.n ~adversary:p.adversary () in
  (* Instrumentation is installed before components register, so its
     on_tick hook sees every tick and its fold every event of the run. *)
  let inst = Option.map (fun metrics -> Obs.Instrument.install ~metrics engine) metrics in
  p.builder engine ~graph:p.graph ~instance ~eat_ticks:c.Config.eat_ticks;
  List.iter
    (fun (pid, at) -> if pid >= 0 && pid < p.n then Engine.schedule_crash engine pid ~at)
    c.Config.crashes;
  let raised = guarded_run engine ~until:c.Config.horizon in
  Option.iter Obs.Instrument.finalize inst;
  let trace = Engine.trace engine in
  let horizon = c.Config.horizon and n = p.n in
  let ix = Dining.Monitor.Index.build trace ~instance in
  let checks =
    match raised with
    | Some check -> [ check ]
    | None ->
        let wf = Dining.Monitor.Index.wait_freedom ix ~n ~horizon ~slack:(horizon / 3) in
        let wx =
          Dining.Monitor.Index.eventual_weak_exclusion ix ~graph:p.graph ~horizon
            ~suffix_from:(horizon / 2)
        in
        let ex = Dining.Monitor.Index.exiting_finite ix ~n ~horizon ~slack:(horizon / 3) in
        if pass wf && pass wx && pass ex then green
        else
          [
            Obs.Report.of_verdict "wait_freedom" wf;
            Obs.Report.of_verdict "eventual_weak_exclusion" wx;
            Obs.Report.of_verdict "exiting_finite" ex;
          ]
  in
  (checks, ix, trace)

let judge p =
  let checks, _, _ = execute p in
  checks

let failed checks =
  List.filter_map
    (fun (ch : Obs.Report.check) -> if ch.Obs.Report.holds then None else Some ch.Obs.Report.name)
    checks

let run_traced ?drive ?metrics ~registry c =
  let p = plan ?drive ~registry c in
  let checks, ix, trace = execute ?metrics p in
  let meals = ref 0 in
  for pid = 0 to p.n - 1 do
    meals := !meals + Dining.Monitor.Index.eat_count ix ~pid
  done;
  (* The signature is a pure function of the retained trace: observing
     it after the run gives the bytes a collector subscribed from the
     start would. *)
  let cov = Obs.Coverage.create () in
  Trace.iter trace (fun _ ev -> Obs.Coverage.observe cov ev);
  ( {
      checks;
      failed = failed checks;
      meals = !meals;
      trace_events = Trace.length trace;
      coverage = Obs.Coverage.snapshot cov;
    },
    trace )

let run ?drive ?metrics ~registry c = fst (run_traced ?drive ?metrics ~registry c)
