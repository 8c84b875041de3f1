(** Fuzzing campaigns: generate N configs from a root seed, run each under
    the dining monitors, shrink violations into replayable artifacts.

    Everything canonical is deterministic in [root_seed] {e alone}: run [i]
    draws its whole PRNG stream from {!Dsim.Prng.derive}[ root_seed
    ~index:i] — a pure function of the pair, not a sequentially stateful
    split chain — so runs are independent trials that may execute on any
    worker in any order. With [jobs > 1] the runs are spread over that many
    domains ({!Exec.Pool}) and the results merged back in run-index order:
    verdicts, violations, shrunk counterexamples, merged metrics and the
    summary's canonical body are byte-identical for every [jobs] value.
    Only the wall_clock section (total and per-run elapsed seconds, and the
    jobs count itself) may differ between invocations. *)

type violation = {
  index : int;  (** Which run of the campaign failed. *)
  config : Config.t;
  failed : string list;  (** Names of the violated properties. *)
  repro : Repro.t option;
      (** Shrunk counterexample; [None] once [max_repros] have been shrunk. *)
}

type t = {
  root_seed : int64;
  runs : int;
  jobs : int;  (** Worker domains used; affects wall-clock only. *)
  violations : violation list;
  knobs : (string * Obs.Json.t) list;  (** Campaign parameters, for the summary. *)
  entries : Obs.Json.t list;  (** One summary entry per violation. *)
  metrics : Obs.Metrics.t;
      (** Per-run engine instrumentation registries, merged in run-index
          order — deterministic in [root_seed], independent of [jobs].
          Includes counter [coverage.edges_new] (sum over runs of the edge
          buckets each run added to the accumulated union) and gauge
          [coverage.edges] (final union popcount). *)
  coverage : Obs.Coverage.t;
      (** Union of the per-run schedule-coverage signatures — commutative,
          hence identical for every [jobs]. *)
  coverage_growth : int list;
      (** Cumulative union edge count after each run, in run-index order —
          the campaign's coverage growth curve. *)
  run_walls : float array;
      (** Wall seconds per run, in run-index order. Nondeterministic; feeds
          the summary's wall_clock section only. *)
}

val run :
  ?runs:int ->
  ?max_repros:int ->
  ?max_horizon:int ->
  ?families:Config.family list ->
  ?algos:string list ->
  ?on_run:(int -> Config.t -> Runner.outcome -> unit) ->
  ?corpus:(int -> Repro.t -> unit) ->
  ?jobs:int ->
  registry:Runner.registry ->
  root_seed:int64 ->
  unit ->
  t
(** Execute a campaign. Defaults: 100 runs, shrink at most 3 violations,
    horizons up to 6000, all adversary families, every algorithm in the
    registry, [jobs = 1]. [on_run] observes every run and [corpus] receives
    a zero-override artifact for every run; both are invoked on the calling
    domain, in run-index order, after the parallel phase — so campaign
    output (progress lines, corpus files) is identical for every [jobs].
    Shrinking also happens on the calling domain, over the first
    [max_repros] violations in run-index order. Raises [Invalid_argument]
    on empty algorithm or family lists or [jobs < 1]. *)

val wall_json : ?total_s:float -> t -> Obs.Json.t
(** The wall_clock section: [{"jobs":N, "total_s":S?, "runs_s":[...]}].
    Everything in it is excluded from the canonical digest. *)

val summary : ?total_s:float -> cmd:string -> t -> Obs.Json.t
(** The ["dinersim-campaign/1"] summary document (see
    {!Obs.Report.make_campaign}). Canonical body (config, entries, merged
    metrics, coverage block) is byte-identical across [jobs]; the
    wall_clock section carries {!wall_json}. *)
