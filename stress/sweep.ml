(* Offline stress sweeps: dining algorithms x topologies x adversaries x
   fault patterns, hundreds of configurations per invocation.

     dune exec stress/sweep.exe -- wf                # 648 configs
     dune exec stress/sweep.exe -- kfair /tmp/k.json # custom report path
     dune exec stress/sweep.exe -- fl1               # any Check.Runner algorithm
     dune exec stress/sweep.exe -- wf --seed 0xBEEF  # shift the seed grid
     dune exec stress/sweep.exe -- wf -j 8           # 8 worker domains

   --seed (hex or decimal, parsed by the shared Core.Cmdline helper) sets
   the base of the per-config seed ladder (default 4000). -j/--jobs
   spreads the grid over that many domains (default: recommended domain
   count); each configuration is an independent simulation keyed by its
   own seed, so the report body and the stderr failure log are
   byte-identical for every worker count — only wall_clock differs.

   Each configuration's verdicts are recorded as one entry of a
   machine-readable JSON report (default STRESS_<algo>.json in the
   current directory, schema "dinersim-stress/1"); failures are still
   echoed to stderr, in grid order, after the parallel phase.

   These grids found three real bugs during development (an FTME
   double-grant and a recovery deadlock from stale releases, and a kfair
   whole-graph deadlock from stale-request overwrites), all now fixed and
   pinned by regression tests. Keep running them after any protocol
   change. *)

open Dsim

let adversary_of = function
  | `Async -> Adversary.async_uniform ()
  | `Partial gst -> Adversary.partial_sync ~gst ()
  | `Bursty gst -> Adversary.bursty ~gst ()

let graph_of seed = function
  | `Ring n -> Graphs.Conflict_graph.ring ~n
  | `Clique n -> Graphs.Conflict_graph.clique ~n
  | `Star n -> Graphs.Conflict_graph.star ~n
  | `Path n -> Graphs.Conflict_graph.path ~n
  | `Rand n -> Graphs.Conflict_graph.random ~n ~p:0.5 ~rng:(Prng.create seed)

let gname = function
  | `Ring n -> Printf.sprintf "ring%d" n | `Clique n -> Printf.sprintf "clique%d" n
  | `Star n -> Printf.sprintf "star%d" n | `Path n -> Printf.sprintf "path%d" n
  | `Rand n -> Printf.sprintf "rand%d" n

let aname = function
  | `Async -> "async" | `Partial g -> Printf.sprintf "partial:%d" g
  | `Bursty g -> Printf.sprintf "bursty:%d" g

(* The flat grid, in the canonical (graph, adversary, crashes, seed)
   nesting order the sequential sweep used — report entries and failure
   lines keep this order regardless of which domain ran which config. *)
let grid base_seed =
  List.concat_map
    (fun gspec ->
      List.concat_map
        (fun adv ->
          List.concat_map
            (fun ncrash ->
              List.map
                (fun seed -> (gspec, adv, ncrash, seed))
                (List.init 12 (fun i -> Int64.add base_seed (Int64.of_int (i * 1733)))))
            [ 0; 1; 2 ])
        [ `Async; `Partial 300; `Bursty 800 ])
    [ `Ring 5; `Clique 5; `Star 6; `Path 6; `Rand 6; `Rand 7 ]
  |> Array.of_list

(* One configuration = one independent simulation, a pure function of the
   algorithm and the grid point: safe to run on any worker domain. The
   algorithm is deployed by its Check.Runner.default_registry builder. *)
let run_config algo deploy (gspec, adv, ncrash, seed) =
  let graph = graph_of seed gspec in
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary:(adversary_of adv) () in
  (* Per-config registry, installed before components register so its
     fold sees every event of the run; merged in grid order after the
     parallel phase, like the campaign driver. *)
  let metrics = Obs.Metrics.create () in
  let inst = Obs.Instrument.install ~metrics engine in
  (* eat_ticks 3: the greedy client's default meal. *)
  deploy engine ~graph ~instance:"dx" ~eat_ticks:3;
  if ncrash >= 1 then Engine.schedule_crash engine (n - 1) ~at:(600 + Int64.to_int (Int64.rem seed 1500L));
  if ncrash >= 2 && n > 3 then Engine.schedule_crash engine 1 ~at:2200;
  Engine.run engine ~until:14000;
  Obs.Instrument.finalize inst;
  let ix = Dining.Monitor.Index.build (Engine.trace engine) ~instance:"dx" in
  let wf = Dining.Monitor.Index.wait_freedom ix ~n ~horizon:14000 ~slack:4500 in
  let wx = Dining.Monitor.Index.eventual_weak_exclusion ix ~graph ~horizon:14000 ~suffix_from:8000 in
  let ok = wf.Detectors.Properties.holds && wx.Detectors.Properties.holds in
  let entry =
    Obs.Json.Obj
      [
        ("graph", Obs.Json.Str (gname gspec));
        ("adversary", Obs.Json.Str (aname adv));
        ("crashes", Obs.Json.Int ncrash);
        ("seed", Obs.Json.Str (Core.Cmdline.seed_to_string seed));
        ("wait_freedom", Obs.Json.Bool wf.Detectors.Properties.holds);
        ("eventual_weak_exclusion", Obs.Json.Bool wx.Detectors.Properties.holds);
        ("pass", Obs.Json.Bool ok);
      ]
  in
  let fail_line =
    if ok then None
    else
      Some
        (Printf.sprintf "FAIL algo=%s g=%s adv=%s crashes=%d seed=%Ld wf=%b wx=%b\n"
           algo (gname gspec) (aname adv) ncrash seed
           wf.Detectors.Properties.holds wx.Detectors.Properties.holds)
  in
  (entry, fail_line, metrics)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let or_die = function
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "sweep: %s\n" msg;
        exit 2
  in
  let base_seed, args = or_die (Core.Cmdline.extract_seed_flag ~default:4000L args) in
  let jobs, positional =
    or_die
      (Core.Cmdline.extract_int_flag ~names:[ "-j"; "--jobs" ]
         ~default:(Exec.Pool.default_jobs ()) args)
  in
  if jobs < 1 then begin
    Printf.eprintf "sweep: -j must be at least 1 (got %d)\n" jobs;
    exit 2
  end;
  let algo = match positional with a :: _ -> a | [] -> "wf" in
  let deploy =
    match List.assoc_opt algo Check.Runner.default_registry with
    | Some deploy -> deploy
    | None ->
        Printf.eprintf "sweep: unknown algorithm %S (known: %s)\n" algo
          (String.concat ", " (List.map fst Check.Runner.default_registry));
        exit 2
  in
  let report_path =
    match positional with
    | _ :: p :: _ -> p
    | _ -> Printf.sprintf "STRESS_%s.json" algo
  in
  let specs = grid base_seed in
  let (results : (Obs.Json.t * string option * Obs.Metrics.t) array), total_s =
    Obs.Instrument.time (fun () ->
        Exec.Pool.map ~jobs (Array.length specs) (fun i -> run_config algo deploy specs.(i)))
  in
  (* Merge phase, in grid order: failure lines, report entries and the
     merged metrics registry come out identical for every -j. *)
  let fails = ref 0 in
  let metrics = Obs.Metrics.create () in
  Array.iter
    (fun (_, fail_line, m) ->
      Obs.Metrics.merge ~into:metrics m;
      match fail_line with
      | Some line ->
          incr fails;
          Printf.eprintf "%s%!" line
      | None -> ())
    results;
  let j =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "dinersim-stress/1");
        ("algo", Obs.Json.Str algo);
        ("runs", Obs.Json.Int (Array.length specs));
        ("failures", Obs.Json.Int !fails);
        ("configs", Obs.Json.Arr (Array.to_list (Array.map (fun (e, _, _) -> e) results)));
        ("metrics", Obs.Metrics.to_json metrics);
        (* Everything above is deterministic in (--seed, algo); wall_clock
           is the only section allowed to vary between invocations. *)
        ( "wall_clock",
          Obs.Json.Obj
            [ ("jobs", Obs.Json.Int jobs); ("total_s", Obs.Json.Float total_s) ] );
      ]
  in
  Obs.Json.write_file ~path:report_path j;
  Printf.printf "algo=%s runs=%d failures=%d jobs=%d report=%s\n" algo (Array.length specs)
    !fails jobs report_path;
  if !fails > 0 then exit 1
