(** Campaign configurations: the coordinates of one fuzzed run.

    A config pins everything a run depends on — algorithm, conflict-graph
    topology, adversary family and knobs, crash pattern, handicap set,
    horizon, client meal length, and the engine seed — so a run is a pure
    function of its config and (optionally) a decision-trace override. All
    knobs are integers (probabilities are percentages) so configs
    round-trip through JSON byte-exactly, which the repro-artifact digests
    rely on. *)

open Dsim

type adversary =
  | Sync
  | Async of { max_delay : int; step_prob_pct : int }
  | Partial of { gst : int; pre_max_delay : int; delta : int; pre_step_prob_pct : int }
  | Bursty of { gst : int; calm : int; storm : int; storm_delay : int; delta : int }
  | Dls of { delta : int; phi : int }
      (** DLS-style parametric bounds: message delay in [1, delta], a step
          at least every [phi] ticks. The model checker's family — the
          fuzz generator never draws it (see {!all_families}). *)

type topology = Pair | Ring of int | Clique of int | Star of int | Path of int

type t = {
  algo : string;  (** Registry name of the dining deployment (see {!Runner}). *)
  topology : topology;
  adversary : adversary;
  crashes : (Types.pid * Types.time) list;  (** Sorted [(pid, tick)] pairs. *)
  handicap : (Types.pid list * int) option;  (** Slowed pids and factor (percent). *)
  horizon : int;
  eat_ticks : int;
  seed : int64;
}

type family = [ `Sync | `Async | `Partial | `Bursty | `Dls ]

(** The four randomly-fuzzed families. [`Dls] is excluded: DLS configs are
    the bounded model checker's input, built explicitly by [dinersim
    check]; keeping it out of the default draw preserves every pinned
    campaign digest. *)
val all_families : family list
val family_of_string : string -> family option
val family_to_string : family -> string
val family : adversary -> family

val graph : t -> Graphs.Conflict_graph.t
val n_procs : t -> int
val to_adversary : t -> Adversary.t
(** Build the run adversary, including the handicap wrapper when set. *)

val topology_to_string : topology -> string
val topology_of_string : string -> topology option
val describe : t -> string
(** One-line human summary (used in campaign logs). *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> t
(** Raises [Failure] on malformed input. *)

val generate : Prng.t -> algos:string list -> families:family list -> max_horizon:int -> t
(** Draw a random config. Knob ranges are calibrated so the monitored
    properties are expected to hold for the real algorithms (gst within the
    first quarter of the horizon, handicap factors >= 30%): campaign
    violations mean property failures, not truncation artifacts. *)
