open Dsim

type violation = {
  index : int;
  config : Config.t;
  failed : string list;
  repro : Repro.t option;
}

type t = {
  root_seed : int64;
  runs : int;
  jobs : int;
  violations : violation list;
  knobs : (string * Obs.Json.t) list;
  entries : Obs.Json.t list;
  metrics : Obs.Metrics.t;
  coverage : Obs.Coverage.t;
  coverage_growth : int list;
  run_walls : float array;
}

let violation_entry v =
  Obs.Json.Obj
    ([
       ("run", Obs.Json.Int v.index);
       ("config", Config.to_json v.config);
       ("failed", Obs.Json.Arr (List.map (fun s -> Obs.Json.Str s) v.failed));
     ]
    @
    match v.repro with
    | Some r ->
        [
          ( "repro",
            Obs.Json.Obj
              [
                ("digest", Obs.Json.Str (Repro.digest r));
                ("config", Config.to_json r.Repro.config);
                ("overrides", Obs.Json.Int (List.length r.Repro.overrides));
              ] );
        ]
    | None -> [])

let run ?(runs = 100) ?(max_repros = 3) ?(max_horizon = 6000) ?(families = Config.all_families)
    ?algos ?on_run ?corpus ?(jobs = 1) ~registry ~root_seed ()
    =
  if runs < 0 then invalid_arg "Campaign.run: runs < 0";
  let algos =
    match algos with Some a -> a | None -> List.map fst (registry : Runner.registry)
  in
  if algos = [] then invalid_arg "Campaign.run: empty algorithm list";
  if families = [] then invalid_arg "Campaign.run: empty family list";
  (* Phase 1 — the embarrassingly parallel part. Run [index] derives its
     whole PRNG stream from [(root_seed, index)] (not from a sequentially
     stateful split chain), so any worker can execute any index and produce
     the same config, the same engine run and the same verdicts: the merged
     result is independent of [jobs] and of domain scheduling. Each run
     fills its own metrics registry; only the per-run wall-clock below is
     allowed to differ between invocations. *)
  let results =
    Exec.Pool.map ~jobs runs (fun index ->
        let crng = Prng.derive root_seed ~index in
        let config = Config.generate crng ~algos ~families ~max_horizon in
        let metrics = Obs.Metrics.create () in
        let outcome, wall_s =
          Obs.Instrument.time (fun () -> Runner.run ~metrics ~registry config)
        in
        (config, outcome, metrics, wall_s))
  in
  (* Phase 2 — sequential, in run-index order: observer callbacks, metrics
     merge, and shrinking. Shrinking stays on the calling domain so the
     set of shrunk violations (the first [max_repros] by index) and every
     shrink search are bit-identical to a single-domain campaign. *)
  let metrics = Obs.Metrics.create () in
  let violations = ref [] in
  let shrunk = ref 0 in
  (* Union of the per-run coverage signatures, folded in run-index order.
     Union is commutative, so the accumulated bitmap is order-independent;
     the growth curve (cumulative edge count after each run) and the
     edges_new counter depend on the fold order, which run-index order
     makes canonical for every [jobs]. *)
  let coverage = ref (Obs.Coverage.empty ()) in
  let growth = ref [] in
  Array.iteri
    (fun index (config, (outcome : Runner.outcome), m, _wall_s) ->
      Obs.Metrics.merge ~into:metrics m;
      let fresh = Obs.Coverage.new_edges ~seen:!coverage outcome.Runner.coverage in
      Obs.Metrics.incr ~by:fresh (Obs.Metrics.counter metrics "coverage.edges_new");
      coverage := Obs.Coverage.union !coverage outcome.Runner.coverage;
      growth := Obs.Coverage.edges !coverage :: !growth;
      (match on_run with Some f -> f index config outcome | None -> ());
      (match corpus with
      | Some f ->
          (* A natural run needs no decision overrides: replaying with an
             empty table reproduces it exactly. *)
          f index (Repro.v ~config ~len:0 ~overrides:[] ~checks:outcome.Runner.checks)
      | None -> ());
      if outcome.Runner.failed <> [] then begin
        let repro =
          if !shrunk < max_repros then begin
            incr shrunk;
            let check = List.hd outcome.Runner.failed in
            Some (Shrink.counterexample ~registry ~check config)
          end
          else None
        in
        violations := { index; config; failed = outcome.Runner.failed; repro } :: !violations
      end)
    results;
  Obs.Metrics.set (Obs.Metrics.gauge metrics "coverage.edges") (Obs.Coverage.edges !coverage);
  let violations = List.rev !violations in
  let knobs =
    (* [jobs] is deliberately absent: the knobs are part of the canonical
       summary body, which must be byte-identical across worker counts.
       The jobs value is reported in the wall_clock section instead. *)
    [
      ("runs", Obs.Json.Int runs);
      ("max_repros", Obs.Json.Int max_repros);
      ("max_horizon", Obs.Json.Int max_horizon);
      ( "families",
        Obs.Json.Arr
          (List.map (fun f -> Obs.Json.Str (Config.family_to_string f)) families) );
      ("algos", Obs.Json.Arr (List.map (fun a -> Obs.Json.Str a) algos));
    ]
  in
  {
    root_seed;
    runs;
    jobs;
    violations;
    knobs;
    entries = List.map violation_entry violations;
    metrics;
    coverage = !coverage;
    coverage_growth = List.rev !growth;
    run_walls = Array.map (fun (_, _, _, w) -> w) results;
  }

let wall_json ?total_s t =
  Obs.Json.Obj
    ([ ("jobs", Obs.Json.Int t.jobs) ]
    @ (match total_s with Some s -> [ ("total_s", Obs.Json.Float s) ] | None -> [])
    @ [
        ( "runs_s",
          Obs.Json.Arr (Array.to_list (Array.map (fun w -> Obs.Json.Float w) t.run_walls)) );
      ])

let coverage_json t =
  Obs.Json.Obj
    [
      ("width", Obs.Json.Int (Obs.Coverage.width t.coverage));
      ("edges", Obs.Json.Int (Obs.Coverage.edges t.coverage));
      ("digest", Obs.Json.Str (Obs.Coverage.digest t.coverage));
      ("growth", Obs.Json.Arr (List.map (fun n -> Obs.Json.Int n) t.coverage_growth));
      ("bitmap", Obs.Json.Str (Obs.Coverage.to_hex t.coverage));
    ]

let summary ?total_s ~cmd t =
  Obs.Report.make_campaign ~cmd ~root_seed:t.root_seed ~runs:t.runs
    ~violations:(List.length t.violations) ~config:t.knobs ~metrics:t.metrics
    ~coverage:(coverage_json t) ~entries:t.entries ~wall:(wall_json ?total_s t) ()
