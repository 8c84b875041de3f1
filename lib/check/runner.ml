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

let extraction_checks ~trusting (run : Core.Scenario.extraction_run) =
  let engine = run.Core.Scenario.engine in
  let trace = Engine.trace engine and n = Engine.n engine in
  let property name verdict =
    Obs.Report.of_verdict name (verdict trace ~detector:"extracted" ~n ~initially_suspected:true)
  in
  let lemmas ((pair : Reduction.Pair.t), online) posthoc =
    let bad =
      Reduction.Lemmas.online_reports online @ posthoc
      |> List.filter (fun r -> not (Reduction.Lemmas.ok r))
    in
    Obs.Report.check
      ~detail:(String.concat "; " (List.map (fun r -> r.Reduction.Lemmas.lemma) bad))
      ("lemmas." ^ pair.Reduction.Pair.name)
      (bad = [])
  in
  let sc = property "strong_completeness" Detectors.Properties.strong_completeness in
  let esa = property "eventual_strong_accuracy" Detectors.Properties.eventual_strong_accuracy in
  let ta =
    if trusting then [ property "trusting_accuracy" Detectors.Properties.trusting_accuracy ]
    else []
  in
  let posthoc =
    Reduction.Lemmas.trace_reports_all ~engine ~pairs:(List.map fst run.Core.Scenario.onlines)
  in
  (sc :: esa :: ta) @ List.map2 lemmas run.Core.Scenario.onlines posthoc

(* What a config's algo names: a registry builder, or the reduction over
   one of Core.Scenario's boxes ([extract-<box>]). *)
type target = Dining of builder | Extraction of { box : Core.Scenario.box; trusting : bool }

let extract_prefix = "extract-"

let extraction_target algo =
  let k = String.length extract_prefix in
  let box =
    if String.starts_with ~prefix:extract_prefix algo then
      List.assoc_opt (String.sub algo k (String.length algo - k)) Core.Scenario.boxes
    else None
  in
  match box with
  | Some box -> Extraction { box; trusting = algo = extract_prefix ^ "ftme" }
  | None -> failwith (Printf.sprintf "Runner.run: unknown algorithm %S" algo)

(* A top-level search, so resolving a builder allocates only its target. *)
let rec target algo = function
  | (name, builder) :: rest -> if String.equal name algo then Dining builder else target algo rest
  | [] -> extraction_target algo

let target_names registry =
  List.map fst registry @ List.map (fun (box, _) -> extract_prefix ^ box) Core.Scenario.boxes

type plan = {
  config : Config.t;
  target : target;
  graph : Graphs.Conflict_graph.t;
  n : int;
  adversary : Adversary.t;
}

let plan_of ?drive target (c : Config.t) =
  let graph = Config.graph c in
  let base = Config.to_adversary c in
  let adversary = match drive with Some ctl -> Adversary.drive ctl base | None -> base in
  { config = c; target; graph; n = Graphs.Conflict_graph.n graph; adversary }

let plan ?drive ~registry (c : Config.t) = plan_of ?drive (target c.Config.algo registry) c

(* The verdicts of a green run, shared by every run that has them. *)
let green =
  [
    Obs.Report.check "wait_freedom" true;
    Obs.Report.check "eventual_weak_exclusion" true;
    Obs.Report.check "exiting_finite" true;
  ]

let pass (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

let run_to_horizon p engine inst =
  List.iter
    (fun (pid, at) -> if pid >= 0 && pid < p.n then Engine.schedule_crash engine pid ~at)
    p.config.Config.crashes;
  let raised = guarded_run engine ~until:p.config.Config.horizon in
  Option.iter Obs.Instrument.finalize inst;
  raised

(* One run of the plan: a fresh engine, the deployment, the crashes, the
   guarded run and the target's checks, which are not judged on a trace
   an exception cut short. With [meals], also the run's eating sessions. *)
let execute ?metrics ~meals p =
  let c = p.config in
  let engine = Engine.create ~seed:c.Config.seed ~n:p.n ~adversary:p.adversary () in
  (* Instrumentation is installed before components register, so its
     fold sees every event of the run and its tick count starts at 0. *)
  let inst = Option.map (fun metrics -> Obs.Instrument.install ~metrics engine) metrics in
  match p.target with
  | Dining builder ->
      builder engine ~graph:p.graph ~instance ~eat_ticks:c.Config.eat_ticks;
      let raised = run_to_horizon p engine inst in
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
      let eats = ref 0 in
      if meals then
        for pid = 0 to n - 1 do
          eats := !eats + Dining.Monitor.Index.eat_count ix ~pid
        done;
      (checks, !eats, trace)
  | Extraction { box; trusting } ->
      let run = Core.Scenario.extraction engine ~lemmas:true (box engine) in
      let raised = run_to_horizon p engine inst in
      let trace = Engine.trace engine in
      let checks =
        match raised with Some check -> [ check ] | None -> extraction_checks ~trusting run
      in
      (* The pairs' DX instances are the run's only dining instances. *)
      let eats = ref 0 in
      if meals then
        Trace.iter trace (fun _ -> function
          | Trace.Transition { to_ = Types.Eating; _ } -> incr eats | _ -> ());
      (checks, !eats, trace)

let judge p =
  let checks, _, _ = execute ~meals:false p in
  checks

let failed checks =
  List.filter_map
    (fun (ch : Obs.Report.check) -> if ch.Obs.Report.holds then None else Some ch.Obs.Report.name)
    checks

let run_traced ?drive ?metrics ~registry c =
  let checks, meals, trace = execute ?metrics ~meals:true (plan ?drive ~registry c) in
  (* The signature is a pure function of the retained trace: observing
     it after the run gives the bytes a collector subscribed from the
     start would. *)
  let cov = Obs.Coverage.create () in
  Trace.iter trace (fun _ ev -> Obs.Coverage.observe cov ev);
  ( {
      checks;
      failed = failed checks;
      meals;
      trace_events = Trace.length trace;
      coverage = Obs.Coverage.snapshot cov;
    },
    trace )

let run ?drive ?metrics ~registry c = fst (run_traced ?drive ?metrics ~registry c)

(* The box's two diners on a pair, each with a greedy client. *)
let pair_builder box engine ~graph:_ ~instance ~eat_ticks =
  let factory = box engine in
  for pid = 0 to 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle = factory ctx ~instance ~participants:(0, 1) in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let certify box ~seeds ~horizon =
  let crash = [ (1, horizon / 4) ] in
  let extraction = Extraction { box; trusting = false } in
  List.concat_map
    (fun seed ->
      List.map
        (fun (target, algo, crashes) ->
          let c =
            {
              Config.algo;
              topology = Config.Pair;
              adversary =
                Config.Partial { gst = 500; pre_max_delay = 40; delta = 4; pre_step_prob_pct = 50 };
              crashes;
              handicap = None;
              horizon;
              eat_ticks = 3;
              seed;
            }
          in
          (c, judge (plan_of target c)))
        [
          (Dining (pair_builder box), "box", crash);
          (extraction, "extract-box", []);
          (extraction, "extract-box", crash);
        ])
    seeds
