(* Bechamel micro-benchmarks: engineering cost of the substrate and of the
   reduction machinery (B1-B4 in DESIGN.md). *)

open Bechamel
open Dsim

let prepared_engine builder =
  (* Warm a deployment past its convergence prefix so the steady-state step
     cost is measured. *)
  let engine = builder () in
  Engine.run engine ~until:2000;
  engine

let bench_engine_idle () =
  let engine =
    prepared_engine (fun () ->
        Engine.create ~seed:1L ~n:4 ~adversary:(Adversary.async_uniform ()) ())
  in
  Test.make ~name:"engine-step idle n=4" (Staged.stage (fun () -> Engine.step engine))

let bench_engine_dining () =
  let engine =
    prepared_engine (fun () ->
        let run =
          Core.Scenario.wf_dining ~seed:2L ~graph:(Graphs.Conflict_graph.ring ~n:5) ()
        in
        run.Core.Scenario.engine)
  in
  Test.make ~name:"engine-step wf-dining ring5" (Staged.stage (fun () -> Engine.step engine))

let bench_engine_extraction () =
  let engine =
    prepared_engine (fun () ->
        let run = Core.Scenario.wf_extraction ~seed:3L ~with_lemma_monitors:false ~n:3 () in
        run.Core.Scenario.engine)
  in
  Test.make ~name:"engine-step extraction n=3" (Staged.stage (fun () -> Engine.step engine))

let bench_oracle_query () =
  let run = Core.Scenario.wf_extraction ~seed:4L ~with_lemma_monitors:false ~n:3 () in
  Engine.run run.Core.Scenario.engine ~until:2000;
  let oracle = Reduction.Extract.oracle run.Core.Scenario.extract 0 in
  Test.make ~name:"extracted-oracle query n=3"
    (Staged.stage (fun () -> ignore (oracle.Detectors.Oracle.suspects ())))

let bench_trace_scan () =
  let run = Core.Scenario.wf_dining ~seed:5L ~graph:(Graphs.Conflict_graph.ring ~n:5) () in
  Engine.run run.Core.Scenario.engine ~until:5000;
  let trace = Engine.trace run.Core.Scenario.engine in
  let graph = run.Core.Scenario.graph in
  Test.make ~name:"monitor exclusion-scan 5k ticks"
    (Staged.stage (fun () ->
         let ix = Dining.Monitor.Index.build trace ~instance:"dx" in
         ignore (Dining.Monitor.Index.exclusion_violations ix ~graph ~horizon:5000)))

let bench_deliver_backlog () =
  (* Regression bench for the deliver_ripe rewrite: with a wide delay
     spread the in-flight map holds one bucket per future tick, and the
     old per-step [Pidmap.partition] walked every bucket whether ripe or
     not. Peeling ripe buckets off [min_binding] keeps the step cost
     proportional to what is actually delivered; this bench collapses if
     the whole-map scan ever comes back. *)
  let n = 8 in
  let engine =
    prepared_engine (fun () ->
        let engine =
          Engine.create ~seed:6L ~retain_trace:false ~n
            ~adversary:(Adversary.async_uniform ~max_delay:600 ()) ()
        in
        for pid = 0 to n - 1 do
          let ctx = Engine.ctx engine pid in
          Engine.register engine pid
            (Component.make ~name:"flood"
               ~actions:
                 [
                   Component.action "spray"
                     ~guard:(fun () -> true)
                     ~body:(fun () ->
                       let dst = Prng.int ctx.Context.rng ~bound:n in
                       (* simlint: allow D014 — flood bench: the sink is deliberately handler-less; the experiment measures raw delivery cost, and a receiver would become part of the measurement *)
                       ctx.Context.send ~dst ~tag:"flood" Msg.Unit_msg);
                 ]
               ())
        done;
        engine)
  in
  Test.make ~name:"engine-step flood-backlog n=8 delay<=600"
    (Staged.stage (fun () -> Engine.step engine))

let bench_prng () =
  let rng = Prng.create 9L in
  Test.make ~name:"prng next_int64" (Staged.stage (fun () -> ignore (Prng.next_int64 rng)))

let run () =
  Util.section "B   Bechamel micro-benchmarks";
  let tests =
    [
      bench_prng ();
      bench_engine_idle ();
      bench_engine_dining ();
      bench_engine_extraction ();
      bench_deliver_backlog ();
      bench_oracle_query ();
      bench_trace_scan ();
    ]
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Printf.sprintf "%.1f" t
          | Some [] | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: acc)
      results []
    |> List.sort compare
  in
  Util.table ~header:[ "benchmark"; "ns/run (OLS)"; "r²" ] rows
