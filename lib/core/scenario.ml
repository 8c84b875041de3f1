open Dsim

type mistake_windows = (Types.pid * Detectors.Injected.window list) list

let evp_suspects engine ~n ~windows =
  let fns = Array.make n (fun () -> Types.Pidset.empty) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, base = Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) () in
    Engine.register engine pid comp;
    let oracle =
      match List.assoc_opt pid windows with
      | None -> base
      | Some ws ->
          let icomp, wrapped = Detectors.Injected.wrap ctx ~base ~windows:ws in
          Engine.register engine pid icomp;
          wrapped
    in
    fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
  done;
  fun pid -> fns.(pid)

type dining_run = {
  engine : Engine.t;
  graph : Graphs.Conflict_graph.t;
  instance : string;
  handles : Dining.Spec.handle array;
}

let wf_dining ?(seed = 1L) ?(adversary = Adversary.partial_sync ()) ?(instance = "dx")
    ?(eat_ticks = 3) ?(think_ticks = 2) ?(windows = []) ~graph () =
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary () in
  let suspects = evp_suspects engine ~n ~windows in
  let handles =
    Array.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, handle, _ =
          Dining.Wf_ewx.component ctx ~instance ~graph ~suspects:(suspects pid) ()
        in
        Engine.register engine pid comp;
        Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ~think_ticks ());
        handle)
  in
  { engine; graph; instance; handles }

type box = Engine.t -> Reduction.Pair.dining_factory

let wf_box engine =
  let n = Engine.n engine in
  Reduction.Pair.wf_ewx_factory ~n ~suspects:(evp_suspects engine ~n ~windows:[])

let kfair_box engine =
  let n = Engine.n engine in
  let suspects = evp_suspects engine ~n ~windows:[] in
  fun ctx ~instance ~participants ->
    let p, q = participants in
    let graph = Graphs.Conflict_graph.of_edges ~n [ (p, q) ] in
    let c, h, _ =
      Dining.Kfair.component ctx ~instance ~graph ~suspects:(suspects ctx.Context.self) ()
    in
    (c, h)

let trusting_ftme engine ~detection_delay =
  let n = Engine.n engine in
  let fns = Array.make n (fun () -> Types.Pidset.empty) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, oracle =
      Detectors.Ground_truth.trusting ctx ~detection_delay ~peers:(List.init n Fun.id) ()
    in
    Engine.register engine pid comp;
    fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
  done;
  Reduction.Pair.ftme_factory ~suspects:(fun pid -> fns.(pid))

let ftme_box engine = trusting_ftme engine ~detection_delay:25

let hygienic_box engine ctx ~instance ~participants =
  let p, q = participants in
  let graph = Graphs.Conflict_graph.of_edges ~n:(Engine.n engine) [ (p, q) ] in
  let comp, handle, _ = Dining.Hygienic.component ctx ~instance ~graph () in
  (comp, handle)

let boxes =
  [ ("wf", wf_box); ("kfair", kfair_box); ("ftme", ftme_box); ("hygienic", hygienic_box) ]

type extraction_run = {
  engine : Engine.t;
  extract : Reduction.Extract.t;
  onlines : (Reduction.Pair.t * Reduction.Lemmas.online) list;
}

let extraction engine ~lemmas dining =
  let extract =
    Reduction.Extract.create ~engine ~dining ~members:(List.init (Engine.n engine) Fun.id) ()
  in
  let onlines =
    if not lemmas then []
    else
      List.map
        (fun pair -> (pair, Reduction.Lemmas.install_online ~engine ~pair))
        extract.Reduction.Extract.pairs
  in
  { engine; extract; onlines }

let wf_extraction ?(seed = 7L) ?(adversary = Adversary.partial_sync ~gst:500 ())
    ?(windows = []) ?(with_lemma_monitors = true) ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  extraction engine ~lemmas:with_lemma_monitors
    (Reduction.Pair.wf_ewx_factory ~n ~suspects:(evp_suspects engine ~n ~windows))

let ftme_extraction ?(seed = 9L) ?(adversary = Adversary.async_uniform ())
    ?(detection_delay = 25) ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  extraction engine ~lemmas:false (trusting_ftme engine ~detection_delay)

let vulnerability engine ~mode =
  let n = Engine.n engine in
  if n <> 2 then invalid_arg "Scenario.vulnerability: the engine must have two processes";
  let windows = [ (0, [ { Detectors.Injected.from_ = 0; until = 300; target = 1 } ]) ] in
  let suspects = evp_suspects engine ~n ~windows in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  match mode with
  | `Flawed_cm ->
      let cm = Reduction.Flawed_cm.create ~engine ~dining ~watcher:1 ~subject:0 () in
      cm.Reduction.Flawed_cm.suspected
  | `Our_reduction ->
      let pair = Reduction.Pair.create ~engine ~dining ~watcher:1 ~subject:0 () in
      pair.Reduction.Pair.suspected
