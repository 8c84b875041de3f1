let counterexample_json (v : Explore.violation) =
  let failed =
    List.filter_map
      (fun (c : Obs.Report.check) ->
        if c.Obs.Report.holds then None else Some (Obs.Json.Str c.Obs.Report.name))
      v.Explore.repro.Check.Repro.checks
  in
  Obs.Json.Obj
    [
      ("crash_index", Obs.Json.Int v.Explore.crash_index);
      ("schedule_index", Obs.Json.Int v.Explore.schedule_index);
      ("digest", Obs.Json.Str (Check.Repro.digest v.Explore.repro));
      ("failed", Obs.Json.Arr failed);
      ("repro", Check.Repro.to_json v.Explore.repro);
    ]

let make ~(config : Explore.config) ~(result : Explore.result) ?metrics ?wall () =
  let s = result.Explore.stats in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str Obs.Report.mc_schema_version);
      ("cmd", Obs.Json.Str "check");
      ("config", Check.Config.to_json config.Explore.base);
      ( "explorer",
        Obs.Json.Obj
          [
            ("por", Obs.Json.Bool config.Explore.por);
            ("max_schedules", Obs.Json.Int config.Explore.max_schedules);
            ("split_depth", Obs.Json.Int config.Explore.split_depth);
            ("crash_budget", Obs.Json.Int config.Explore.crash_budget);
            ("crash_grid", Obs.Json.Int config.Explore.crash_grid);
          ] );
      ("crash_schedules", Obs.Json.Int s.Explore.crash_schedules);
      ("schedules", Obs.Json.Int s.Explore.schedules);
      ("pruned", Obs.Json.Int s.Explore.pruned);
      ("violations", Obs.Json.Int s.Explore.violation_count);
      ("max_decisions", Obs.Json.Int s.Explore.max_decisions);
      ("truncated", Obs.Json.Bool s.Explore.truncated);
      ("counterexamples", Obs.Json.Arr (List.map counterexample_json result.Explore.violations));
      ( "metrics",
        match metrics with Some m -> Obs.Metrics.to_json m | None -> Obs.Json.Obj [] );
      ("wall_clock", Option.value ~default:Obs.Json.Null wall);
    ]
