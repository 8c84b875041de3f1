(** Exhaustive-run summaries, schema ["dinersim-mc/1"].

    One JSON document per [dinersim check] invocation:

    {v
    {
      "schema":          "dinersim-mc/1",
      "cmd":             "check",
      "config":          { ... },   // the explored Check.Config
      "explorer":        { "por":..., "max_schedules":..., "split_depth":...,
                           "crash_budget":..., "crash_grid":... },
      "crash_schedules": 1,
      "schedules":       152,
      "pruned":          38,
      "violations":      0,
      "max_decisions":   41,
      "truncated":       false,
      "counterexamples": [ { "crash_index":..., "schedule_index":...,
                             "digest":..., "failed": [...],
                             "repro": { fuzz-repro/1 } } ],
      "metrics":         { ... },
      "wall_clock":      { ... }    // the only nondeterministic field
    }
    v}

    Everything except ["wall_clock"] is a pure function of the explored
    config — the worker job count is deliberately {e not} part of the
    body, so reports from the same instance are byte-identical at any
    [-j] (the jobs-invariance property test pins this). Embedded
    counterexamples are complete digest-pinned ["fuzz-repro/1"] artifacts:
    extract one and hand it to [dinersim replay]. The schema tag is
    {!Obs.Report.mc_schema_version}: {!Obs.Report.read_any} recognises and
    shape-validates it, so [dinersim report] vets these documents too. *)

val make :
  config:Explore.config ->
  result:Explore.result ->
  ?metrics:Obs.Metrics.t ->
  ?wall:Obs.Json.t ->
  unit ->
  Obs.Json.t
(** Build the document. It embeds the counterexamples the explorer keeps,
    at most 16 (the first in enumeration order) — the ["violations"]
    counter still reports the full count, so a capped report is visible as
    [violations > length counterexamples], never a silent truncation. *)
