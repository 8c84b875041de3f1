open Dsim

type candidate = {
  name : string;
  prepare : Engine.t -> Reduction.Pair.dining_factory;
}

(* ------------------------------------------------------------------ *)
(* Built-in candidates *)

let heartbeat_suspects engine =
  Scenario.evp_suspects engine ~n:(Engine.n engine) ~windows:[]

let wf_ewx_candidate =
  {
    name = "wf-evp (this repo's WF-◇WX box)";
    prepare =
      (fun engine ->
        let suspects = heartbeat_suspects engine in
        Reduction.Pair.wf_ewx_factory ~n:(Engine.n engine) ~suspects);
  }

let kfair_candidate =
  {
    name = "k-fair timestamped scheduler";
    prepare =
      (fun engine ->
        let suspects = heartbeat_suspects engine in
        fun ctx ~instance ~participants ->
          let p, q = participants in
          let graph = Graphs.Conflict_graph.of_edges ~n:(Engine.n engine) [ (p, q) ] in
          let c, h, _ =
            Dining.Kfair.component ctx ~instance ~graph
              ~suspects:(suspects ctx.Context.self)
              ()
          in
          (c, h));
  }

let ftme_candidate =
  {
    name = "FTME (perpetual WX over trusting oracle)";
    prepare =
      (fun engine ->
        let n = Engine.n engine in
        let fns = Array.make n (fun () -> Types.Pidset.empty) in
        for pid = 0 to n - 1 do
          let ctx = Engine.ctx engine pid in
          let comp, oracle =
            Detectors.Ground_truth.trusting ctx ~detection_delay:25
              ~peers:(List.init n Fun.id) ()
          in
          Engine.register engine pid comp;
          fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
        done;
        Reduction.Pair.ftme_factory ~suspects:(fun pid -> fns.(pid)));
  }

let no_override_candidate =
  {
    name = "no-detector dining (negative control)";
    prepare =
      (fun engine ->
        fun ctx ~instance ~participants ->
          let p, q = participants in
          let graph = Graphs.Conflict_graph.of_edges ~n:(Engine.n engine) [ (p, q) ] in
          let comp, handle, _ = Dining.Hygienic.component ctx ~instance ~graph () in
          ignore (p, q);
          (comp, handle));
  }

(* ------------------------------------------------------------------ *)
(* Checks *)

type check = {
  label : string;
  passed : bool;
  detail : string;
}

type report = {
  candidate_name : string;
  checks : check list;
  certified : bool;
}

(* Box-level behaviour on one two-diner instance with greedy clients. *)
let box_checks candidate ~seed ~horizon =
  let engine = Engine.create ~seed ~n:2 ~adversary:(Adversary.partial_sync ~gst:500 ()) () in
  let factory = candidate.prepare engine in
  let graph = Graphs.Conflict_graph.pair () in
  for pid = 0 to 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle = factory ctx ~instance:"cert" ~participants:(0, 1) in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.schedule_crash engine 1 ~at:(horizon / 4);
  Engine.run engine ~until:horizon;
  let ix = Dining.Monitor.Index.build (Engine.trace engine) ~instance:"cert" in
  let wf = Dining.Monitor.Index.wait_freedom ix ~n:2 ~horizon ~slack:(horizon / 4) in
  let wx =
    Dining.Monitor.Index.eventual_weak_exclusion ix ~graph ~horizon ~suffix_from:(horizon / 2)
  in
  let meals = Dining.Monitor.Index.eat_count ix ~pid:0 in
  let ex = Dining.Monitor.Index.exiting_finite ix ~n:2 ~horizon ~slack:(horizon / 4) in
  [
    {
      label = Printf.sprintf "exiting is finite (seed %Ld)" seed;
      passed = ex.Detectors.Properties.holds;
      detail =
        (if ex.Detectors.Properties.holds then "all relinquishments completed"
         else String.concat "; " ex.Detectors.Properties.details);
    };
    {
      label = Printf.sprintf "wait-freedom past a crash (seed %Ld)" seed;
      passed = wf.Detectors.Properties.holds && meals > 10;
      detail =
        (if wf.Detectors.Properties.holds then Printf.sprintf "survivor ate %d times" meals
         else String.concat "; " wf.Detectors.Properties.details);
    };
    {
      label = Printf.sprintf "eventual weak exclusion (seed %Ld)" seed;
      passed = wx.Detectors.Properties.holds;
      detail =
        (if wx.Detectors.Properties.holds then "no violation in the suffix"
         else String.concat "; " wx.Detectors.Properties.details);
    };
  ]

(* Reduction-level behaviour: extract over the box and check the theorems. *)
let extraction_checks candidate ~seed ~horizon =
  let run_extraction ~crash =
    let engine =
      Engine.create ~seed ~n:2 ~adversary:(Adversary.partial_sync ~gst:500 ()) ()
    in
    let factory = candidate.prepare engine in
    let extract = Reduction.Extract.create ~engine ~dining:factory ~members:[ 0; 1 ] () in
    let onlines =
      List.map
        (fun pair -> (pair, Reduction.Lemmas.install_online ~engine ~pair))
        extract.Reduction.Extract.pairs
    in
    if crash then Engine.schedule_crash engine 1 ~at:(horizon / 4);
    Engine.run engine ~until:horizon;
    (engine, extract, onlines)
  in
  let engine, _, onlines = run_extraction ~crash:false in
  let accuracy =
    Detectors.Properties.eventual_strong_accuracy (Engine.trace engine) ~detector:"extracted"
      ~n:2 ~initially_suspected:true
  in
  let lemma_failures =
    List.concat_map
      (fun (pair, online) ->
        Reduction.Lemmas.online_reports online
        @ Reduction.Lemmas.trace_reports ~engine ~pair
        |> List.filter (fun r -> not (Reduction.Lemmas.ok r))
        |> List.map (fun r -> pair.Reduction.Pair.name ^ ":" ^ r.Reduction.Lemmas.lemma))
      onlines
  in
  let engine2, _, _ = run_extraction ~crash:true in
  let completeness =
    Detectors.Properties.strong_completeness (Engine.trace engine2) ~detector:"extracted"
      ~n:2 ~initially_suspected:true
  in
  [
    {
      label = Printf.sprintf "Theorem 2: extracted accuracy (seed %Ld)" seed;
      passed = accuracy.Detectors.Properties.holds;
      detail =
        (if accuracy.Detectors.Properties.holds then "converged to trust"
         else String.concat "; " accuracy.Detectors.Properties.details);
    };
    {
      label = Printf.sprintf "Lemmas 1-12 monitors (seed %Ld)" seed;
      passed = lemma_failures = [];
      detail =
        (if lemma_failures = [] then "all invariants held"
         else "violated: " ^ String.concat ", " lemma_failures);
    };
    {
      label = Printf.sprintf "Theorem 1: extracted completeness (seed %Ld)" seed;
      passed = completeness.Detectors.Properties.holds;
      detail =
        (if completeness.Detectors.Properties.holds then "crash permanently suspected"
         else String.concat "; " completeness.Detectors.Properties.details);
    };
  ]

let run ?(seeds = Batch.seeds 3) ?(horizon = 20000) candidate =
  let checks =
    List.concat_map
      (fun seed -> box_checks candidate ~seed ~horizon @ extraction_checks candidate ~seed ~horizon)
      seeds
  in
  {
    candidate_name = candidate.name;
    checks;
    certified = List.for_all (fun c -> c.passed) checks;
  }

let pp_report fmt r =
  Format.fprintf fmt "certification of %s:@." r.candidate_name;
  List.iter
    (fun c ->
      Format.fprintf fmt "  [%s] %-45s %s@." (if c.passed then "pass" else "FAIL") c.label
        c.detail)
    r.checks;
  Format.fprintf fmt "verdict: %s@."
    (if r.certified then "CERTIFIED — behaves as a WF-◇WX box; ◇P extracted"
     else "NOT certified")
