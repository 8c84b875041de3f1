(** Machine-readable run reports.

    One JSON document per run, schema ["dinersim-report/1"]:

    {v
    {
      "schema":  "dinersim-report/1",
      "cmd":     "dining",               // subcommand / experiment name
      "seed":    "0x7",                  // hex; null when not seed-driven
      "horizon": 12000,                  // null when open-ended
      "config":  { ... },                // free-form, flat, deterministic
      "checks":  [ {"name":..., "holds":..., "detail":...} ],
      "metrics": { ... },                // Metrics.to_json snapshot
      "wall_clock": { ... }              // the only nondeterministic field
    }
    v}

    Everything except ["wall_clock"] is deterministic in the seed, so two
    reports from identical runs are byte-identical once that one key is
    dropped ({!strip_wall_clock}). The seed is written as ["0x%Lx"], all
    64 bits of it, the form [--seed] parses. *)

val schema_version : string

type check = { name : string; holds : bool; detail : string }

val check : ?detail:string -> string -> bool -> check

val of_verdict : string -> Detectors.Properties.verdict -> check
(** Lift a property-checker verdict into a report check. *)

val check_to_json : check -> Json.t
val check_of_json : Json.t -> check
(** Inverse of {!check_to_json} ([detail] defaults to [""]); raises
    [Failure] on malformed input. Used by the fuzz repro artifacts, which
    embed recorded check verdicts. *)

val make :
  cmd:string ->
  ?seed:int64 ->
  ?horizon:int ->
  ?config:(string * Json.t) list ->
  ?metrics:Metrics.t ->
  ?checks:check list ->
  ?wall:Json.t ->
  unit ->
  Json.t

val passed : Json.t -> bool
(** True iff every check holds. *)

val strip_wall_clock : Json.t -> Json.t
(** Drop the ["wall_clock"] field — the deterministic residue used to
    compare reports across runs. *)

val pp_summary : Format.formatter -> Json.t -> unit
(** Short human rendering: cmd, seed, pass/fail per check (failed checks
    first, otherwise in report order), and the true p50/p90/p99/p999 of
    each non-empty exact-quantile digest. *)

(** {1 Campaign summaries}

    A second document kind, schema ["dinersim-campaign/1"], for multi-run
    drivers (the schedule fuzzer): the root seed, run/violation counters,
    and one entry per executed run. Everything except ["wall_clock"] is
    deterministic in the root seed. *)

val make_campaign :
  cmd:string ->
  root_seed:int64 ->
  runs:int ->
  violations:int ->
  ?config:(string * Json.t) list ->
  ?metrics:Metrics.t ->
  ?coverage:Json.t ->
  entries:Json.t list ->
  ?wall:Json.t ->
  unit ->
  Json.t
(** [metrics] is the campaign's merged per-run registry snapshot — part of
    the canonical body (it is deterministic in the root seed), unlike
    ["wall_clock"]. Omitted, the field is an empty object. [coverage] is
    the campaign's schedule-coverage block
    ([{"width","edges","digest","growth","bitmap"}], see
    {!Coverage.to_json} and {!Check}'s campaign driver); also canonical.
    Omitted, the field is absent. *)

val read_any : path:string -> [ `Run of Json.t | `Campaign of Json.t | `Mc of Json.t ]
(** The one reader: parse any of the three document kinds, dispatching on
    the schema tag, and validate its shape. A run report needs the run
    schema tag, a [cmd] string and a well-formed [checks] array (documents
    without a campaign or mc tag are validated as run reports). Raises
    [Failure] with a reason on invalid input. *)

val pp_campaign_summary : Format.formatter -> Json.t -> unit
(** Short human rendering of a campaign summary: counters, one line per
    violation entry, the schedule-coverage line when the summary carries
    a coverage block, and the same latency digests as {!pp_summary}. *)

(** {1 Model-checking reports}

    The third document kind, schema ["dinersim-mc/1"], written by the
    bounded exhaustive explorer in [lib/mc] ([dinersim check]). Obs
    validates the shape only (schedule/prune/violation counters, the
    truncation flag, and a counterexamples array whose entries carry a
    digest and an embedded ["fuzz-repro/1"] document) so reports can be
    vetted without linking the explorer. *)

val mc_schema_version : string

val validate_mc : Json.t -> unit
(** Raises [Failure] with a reason on malformed input. *)

val pp_mc_summary : Format.formatter -> Json.t -> unit
(** Short human rendering: schedule/prune counters, one line per
    counterexample, and the verdict (ok iff zero violations). *)
