(** Self-contained replayable run artifacts, schema ["fuzz-repro/1"].

    One JSON document holds everything needed to re-execute a fuzzed run
    bit-identically: the {!Config} (which includes the engine seed), the
    decision-trace override (length + sparse positional overrides, see
    {!Dsim.Adversary.replayer}), and the recorded property verdicts. A
    content digest (over the canonical compact JSON, digest field
    excluded) pins the artifact: {!load} verifies it, so a corpus file
    that drifts from its recorded digest fails loudly. *)

open Dsim

val schema_version : string

type t = {
  config : Config.t;
  len : int;  (** Number of adversary queries driven by the override table. *)
  overrides : (int * Adversary.decision) list;  (** Sorted by position. *)
  checks : Obs.Report.check list;  (** Verdicts recorded when the artifact was made. *)
}

val v :
  config:Config.t ->
  len:int ->
  overrides:(int * Adversary.decision) list ->
  checks:Obs.Report.check list ->
  t

val digest : t -> string
(** Hex MD5 of the canonical compact JSON body (without the digest field).
    Deterministic across runs and platforms. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> t
(** Validates the schema tag and the embedded digest; raises [Failure]. *)

val save : path:string -> t -> unit
val load : path:string -> t

val replay : registry:Runner.registry -> t -> (Runner.outcome, string list) result
(** Re-execute the artifact and compare (name, holds) of every recorded
    check against the replayed verdicts; [Error] lists the mismatches. *)
