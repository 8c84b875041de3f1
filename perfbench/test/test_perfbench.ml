(* Tests of the benchmark itself: its statistics, the traced run's
   self-time and bracket attribution, the workloads' pinned outputs, the
   exactness of its counters, and the traced run's fidelity. *)

open Dsim
open Perfbench

let close_to ?(eps = 1e-9) msg want got =
  if Float.abs (want -. got) > eps then Alcotest.failf "%s: expected %g, got %g" msg want got

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_quantiles () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  close_to "median of 1..10" 5.0 (Stats.median xs);
  close_to "p90 of 1..10" 9.0 (Stats.quantile xs 0.9);
  close_to "p0 is the minimum" 1.0 (Stats.quantile xs 0.0);
  close_to "p100 is the maximum" 10.0 (Stats.quantile xs 1.0);
  close_to "median of one sample" 7.0 (Stats.median [| 7.0 |]);
  close_to "median of 1..100" 50.0 (Stats.median (Array.init 100 (fun i -> float_of_int (i + 1))));
  close_to "input left unsorted" 10.0 xs.(0);
  close_to "mean of 1..10" 5.5 (Stats.mean xs)

let test_sample_count_rule () =
  Alcotest.(check bool) "p90 of 100 samples" true (Stats.supported ~count:100 0.9);
  Alcotest.(check bool) "p90 of 99 samples" false (Stats.supported ~count:99 0.9);
  Alcotest.(check bool) "p99 of 1000 samples" true (Stats.supported ~count:1000 0.99);
  Alcotest.(check bool) "p99 of 999 samples" false (Stats.supported ~count:999 0.99);
  Alcotest.(check bool) "median of 20 samples" true (Stats.supported ~count:20 0.5)

(* ------------------------------------------------------------------ *)
(* Recorder: self time is the span minus its children *)

let layers = [| ("outer", true); ("child", true); ("fine", false) |]

let test_self_time () =
  let p = Prof.create layers in
  let at t = Prof.set_manual_clock p t in
  at 0.0;
  Prof.set_item p 7;
  Prof.enter p 0;
  at 1.0;
  Prof.enter p 1;
  at 3.0;
  Prof.enter p 2;
  at 3.5;
  Prof.leave p;
  at 4.0;
  Prof.leave p;
  at 6.0;
  Prof.enter p 2;
  at 6.25;
  Prof.leave p;
  at 10.0;
  Prof.leave p;
  close_to "outer total" 10.0 (Prof.incl_s p 0);
  close_to "outer self = 10 - 3 - 0.25" 6.75 (Prof.self_s p 0);
  close_to "child self = 3 - 0.5" 2.5 (Prof.self_s p 1);
  close_to "fine frames summed" 0.75 (Prof.incl_s p 2);
  Alcotest.(check int) "only flagged layers are spans" 2 (Prof.span_count p);
  let outer = Prof.span p 0 and child = Prof.span p 1 in
  Alcotest.(check int) "child's parent" 0 child.Prof.parent;
  Alcotest.(check int) "outer is a root" (-1) outer.Prof.parent;
  Alcotest.(check int) "spans share the item id" 7 child.Prof.item;
  close_to "outer span self" 6.75 outer.Prof.self;
  close_to "span self = span - children" (outer.Prof.stop -. outer.Prof.start -. 3.25)
    outer.Prof.self

let test_unwind () =
  let p = Prof.create layers in
  Prof.set_manual_clock p 0.0;
  Prof.enter p 0;
  let top = Prof.depth p in
  Prof.enter p 1;
  Prof.enter p 2;
  Prof.set_manual_clock p 2.0;
  Prof.unwind_to p top;
  Alcotest.(check int) "back at the outer frame" top (Prof.depth p);
  close_to "unwound child closed at the unwind" 2.0 (Prof.incl_s p 1);
  Prof.leave p;
  Alcotest.(check int) "all closed" 0 (Prof.depth p)

(* ------------------------------------------------------------------ *)
(* Brackets charge exactly the hooks and subscribers between them *)

let engine () = Engine.create ~n:1 ~adversary:(Adversary.synchronous ()) ()

let test_hook_brackets () =
  let tr = Layered.create () in
  let p = tr.Layered.prof in
  let t = ref 0.0 in
  let work d () =
    t := !t +. d;
    Prof.set_manual_clock p !t
  in
  Prof.set_manual_clock p 0.0;
  let e = engine () in
  Engine.on_tick e (work 0.5);
  Layered.bracket_hooks tr Layered.lemma_hooks e (fun () -> Engine.on_tick e (work 1.0));
  Engine.on_tick e (work 4.0);
  Prof.enter p Layered.run;
  Engine.step e;
  Engine.step e;
  Prof.leave p;
  close_to "bracketed hook charged to its layer" 2.0 (Prof.incl_s p Layered.lemma_hooks);
  close_to "hooks outside the brackets stay in the run" 9.0 (Prof.self_s p Layered.run);
  close_to "run total" 11.0 (Prof.incl_s p Layered.run)

let test_subscriber_brackets () =
  let tr = Layered.create () in
  let p = tr.Layered.prof in
  let t = ref 0.0 in
  let work d _ =
    t := !t +. d;
    Prof.set_manual_clock p !t
  in
  Prof.set_manual_clock p 0.0;
  let trace = Trace.create () in
  Trace.subscribe trace (work 0.25);
  Layered.bracket_subscribers tr Layered.subscribers trace (fun () ->
      Trace.subscribe trace (work 1.0));
  Trace.subscribe trace (work 3.0);
  Prof.enter p Layered.dining;
  for _ = 1 to 3 do
    Trace.append trace ~at:0 (Trace.Crash { pid = 0 })
  done;
  Prof.leave p;
  close_to "bracketed subscriber charged" 3.0 (Prof.incl_s p Layered.subscribers);
  close_to "others stay with the caller" 9.75 (Prof.self_s p Layered.dining)

(* Wrapped components and adversaries count and time without changing
   behaviour: the same run, wrapped or not, leaves the same trace. *)
let test_wrappers_preserve_runs () =
  let run wrap =
    let tr = Layered.create () in
    let adversary = Adversary.async_uniform () in
    let adversary = if wrap then Layered.wrap_adversary tr adversary else adversary in
    let n = 4 in
    let e = Engine.create ~seed:3L ~n ~adversary () in
    let graph = Graphs.Conflict_graph.ring ~n in
    for pid = 0 to n - 1 do
      let ctx = Engine.ctx e pid in
      let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"t" ~graph () in
      let w c = if wrap then Layered.wrap_component tr Layered.dining c else c in
      Engine.register e pid (w comp);
      Engine.register e pid (w (Dining.Clients.greedy ctx ~handle ()))
    done;
    Engine.run e ~until:500;
    (Trace.to_csv (Engine.trace e), tr)
  in
  let plain, _ = run false and wrapped, tr = run true in
  Alcotest.(check string) "same trace" plain wrapped;
  let guards = tr.Layered.guards.(Layered.dining) and bodies = tr.Layered.bodies.(Layered.dining) in
  Alcotest.(check bool) "guards counted" true (guards > 0);
  Alcotest.(check bool) "bodies run are guards that held" true (bodies > 0 && bodies <= guards);
  Alcotest.(check bool) "adversary queries counted" true (tr.Layered.queries >= 4 * 500)

(* ------------------------------------------------------------------ *)
(* Workloads: pins, exact counters, traced fidelity *)

(* Allocation (minor + major - promoted words) is exact whatever the
   heap looked like before; the collection counts and the promoted and
   major words also depend on the heap's history, so they repeat only
   between fresh processes (see [test_fresh_processes]). *)
let test_workload name () =
  let a = Suite.plain name ~seed:0 in
  let b = Suite.plain name ~seed:0 in
  (match Suite.mismatches ~expected:(Suite.expected name ~seed:0) a.Workloads.outputs with
  | [] -> ()
  | m -> Alcotest.failf "pins: %s" (String.concat "; " m));
  Alcotest.(check (list (pair string string))) "two runs, same outputs" a.Workloads.outputs
    b.Workloads.outputs;
  Alcotest.(check int) "two runs, same proc-ticks" a.Workloads.proc_ticks b.Workloads.proc_ticks;
  Alcotest.(check int) "two runs, same item count" (Array.length a.Workloads.items)
    (Array.length b.Workloads.items);
  Alcotest.(check (float 0.0)) "two runs, same allocation" a.Workloads.gc.Workloads.alloc_words
    b.Workloads.gc.Workloads.alloc_words;
  Alcotest.(check int) "no failed items" 0 a.Workloads.failed;
  let pr = Suite.traced_pair name ~seed:0 in
  let t = pr.Suite.p_traced in
  Alcotest.(check (list (pair string string)))
    "traced run reproduces the untraced outputs" a.Workloads.outputs t.Workloads.t_outputs;
  Alcotest.(check (list string)) "traced run reproduces every item" [] t.Workloads.fidelity;
  Alcotest.(check int) "traced run counts the same proc-ticks" a.Workloads.proc_ticks
    t.Workloads.t_proc_ticks

(* main.exe's exact metrics, end-to-end and per-layer, repeat to the
   last digit between two fresh processes. *)
let test_fresh_processes () =
  let result trace =
    let ic =
      Unix.open_process_args_in "../main.exe"
        [|
          "../main.exe"; "--workload"; "extract"; "--seed"; "0"; "--seconds"; "0"; "--trace"; trace;
        |]
    in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "main.exe --trace %s failed" trace);
    let doc = Obs.Json.of_string (List.nth lines (List.length lines - 1)) in
    Alcotest.(check bool) "correct" true (Obs.Json.bool (Obs.Json.get doc "correct"));
    match Obs.Json.get doc "metrics" with
    | Obs.Json.Obj ms ->
        List.filter_map
          (fun (name, m) ->
            match Obs.Json.get m "value" with
            | Obs.Json.Float v -> Some (name, v)
            | Obs.Json.Int v -> Some (name, float_of_int v)
            | _ -> None)
          ms
    | _ -> Alcotest.fail "no metrics object"
  in
  let exact = function
    | "peak_heap_mb" | "alloc_words_per_proc_tick" | "pass_frac" -> true
    | name ->
        let timed = [ "_s"; "_ms"; "_frac" ] in
        not (List.exists (fun suffix -> String.ends_with ~suffix name) timed)
  in
  List.iter
    (fun trace ->
      let first = List.filter (fun (n, _) -> exact n) (result trace) in
      let second = List.filter (fun (n, _) -> exact n) (result trace) in
      Alcotest.(check bool) ("some exact metrics, --trace " ^ trace) true (List.length first >= 3);
      Alcotest.(check (list (pair string (float 0.0)))) ("--trace " ^ trace) first second)
    [ "0"; "1" ]

(* A rep with made-up times and counts, for the metric arithmetic: 100
   items of 10 process-ticks, one of them [fast_s] long and the others
   [item_s]. *)
let fake_rep ?(wall_s = 2.0) ?(setup_s = 1.0) ?(item_s = 0.001) ?(fast_s = 0.001) () =
  {
    Workloads.wall_s;
    setup_s;
    setup_items = Array.make 100 setup_s;
    proc_ticks = 1000;
    items = Array.init 100 (fun i -> if i = 0 then fast_s else item_s);
    item_ticks = Array.make 100 10.0;
    attempted = 1;
    failed = 0;
    gc =
      {
        Workloads.alloc_words = 1.0;
        major_words = 0.0;
        promoted_words = 0.0;
        minor_collections = 0;
        major_collections = 0;
      };
    top_heap_words = 1;
    outputs = [];
  }

let value name ms = (List.find (fun (m : Suite.metric) -> m.Suite.name = name) ms).Suite.value

(* The gated rate and set-up time come from the fastest 1% of the items
   (by time per process-tick) and set-up readings of all reps; the
   averages skip the first rep, a warm-up, unless it is the only one. *)
let test_fast_items_and_averages () =
  let reps =
    [
      fake_rep ~wall_s:9.0 ~setup_s:5.0 ~item_s:0.009 ~fast_s:0.0005 ();
      fake_rep ~wall_s:1.0 ~setup_s:0.25 ~item_s:0.001 ~fast_s:0.0004 ();
      fake_rep ~wall_s:3.0 ~setup_s:0.75 ~item_s:0.003 ~fast_s:0.0002 ();
    ]
  in
  let ms = Suite.end_to_end reps in
  close_to "peak rate: from the 3rd fastest time per proc-tick" (10.0 /. 0.0005)
    (value "peak_proc_ticks_per_s" ms);
  close_to "setup_s: fastest 1% of 300 readings" 0.25 (value "setup_s" ms);
  close_to "pass_frac counts every rep" 1.0 (value "pass_frac" ms);
  let av = Suite.averages reps in
  close_to "wall_s: mean of the timed reps" 2.0 (value "wall_s" av);
  close_to "proc-ticks over mean wall minus mean set-up" (1000.0 /. 1.5)
    (value "proc_ticks_per_s" av);
  close_to "item_p01_ms: 3rd fastest of 300 items" 0.5 (value "item_p01_ms" av);
  close_to "item_p50_ms: mean of per-rep medians" 2.0 (value "item_p50_ms" av);
  close_to "item_p90_ms: mean of per-rep p90s" 2.0 (value "item_p90_ms" av);
  close_to "a single rep is averaged" 9.0
    (value "wall_s" (Suite.averages [ List.hd reps ]));
  close_to "and gives the set-up" 5.0 (value "setup_s" (Suite.end_to_end [ List.hd reps ]))

(* The metric names and units main.exe prints are the ones
   BENCHMARK.json declares, in both modes. *)
let test_declared_metrics () =
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let doc = Obs.Json.of_string json in
  let declared key =
    List.map
      (fun m -> (Obs.Json.str (Obs.Json.get m "name"), Obs.Json.str (Obs.Json.get m "unit")))
      (Obs.Json.arr (Obs.Json.get doc key))
  in
  let rep = fake_rep () in
  let names ms = List.map (fun (m : Suite.metric) -> (m.Suite.name, m.Suite.unit_)) ms in
  Alcotest.(check (list (pair string string)))
    "end-to-end" (declared "end_to_end")
    (names (Suite.end_to_end [ rep ]));
  let pr =
    {
      Suite.p_plain = rep;
      p_traced =
        {
          Workloads.t_wall_s = 3.0;
          t_proc_ticks = 10;
          msgs = 0;
          events = 0;
          t_outputs = [];
          fidelity = [];
          counts = [];
        };
      tr = Layered.create ();
      campaign_self_s = 0.0;
    }
  in
  Alcotest.(check (list (pair string string))) "per-layer" (declared "per_layer")
    (names (Suite.per_layer pr))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank quantiles" `Quick test_quantiles;
          Alcotest.test_case "ten samples beyond a percentile" `Quick test_sample_count_rule;
          Alcotest.test_case "fastest items gated, averages skip the warm-up" `Quick
            test_fast_items_and_averages;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time is span minus children" `Quick test_self_time;
          Alcotest.test_case "unwind closes skipped frames" `Quick test_unwind;
          Alcotest.test_case "hook brackets attribute exactly" `Quick test_hook_brackets;
          Alcotest.test_case "subscriber brackets attribute exactly" `Quick
            test_subscriber_brackets;
          Alcotest.test_case "wrappers preserve runs" `Quick test_wrappers_preserve_runs;
          Alcotest.test_case "declared metrics are printed" `Quick test_declared_metrics;
        ] );
      ( "workloads",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ ": pins, exact counters, traced fidelity") `Slow
              (test_workload name))
          Suite.workloads
        @ [
            Alcotest.test_case "exact metrics repeat across processes" `Slow
              test_fresh_processes;
          ] );
    ]
