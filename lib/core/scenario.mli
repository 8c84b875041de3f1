(** Canned experiment scenarios.

    One-call builders for the set-ups used throughout the test-suite,
    benches, examples and the CLI: a WF-◇WX dining deployment, the full
    ◇P extraction, the Section 9 T extraction, and the Section 3
    vulnerability scenario. All are deterministic in [seed]. *)

open Dsim

type mistake_windows = (Types.pid * Detectors.Injected.window list) list
(** Per-process adversarial false-suspicion windows injected into the
    {e underlying} dining-layer ◇P modules. *)

val evp_suspects :
  Engine.t -> n:int -> windows:mistake_windows -> Types.pid -> unit -> Types.Pidset.t
(** Deploy one heartbeat ◇P module per process (wrapped with injected
    mistakes where configured) and return the per-process query functions. *)

(** A dining deployment: one WF-◇WX diner per process plus greedy clients. *)
type dining_run = {
  engine : Engine.t;
  graph : Graphs.Conflict_graph.t;
  instance : string;
  handles : Dining.Spec.handle array;
}

val wf_dining :
  ?seed:int64 ->
  ?adversary:Adversary.t ->
  ?instance:string ->
  ?eat_ticks:int ->
  ?think_ticks:int ->
  ?windows:mistake_windows ->
  graph:Graphs.Conflict_graph.t ->
  unit ->
  dining_run

(** {1 Black boxes}

    The reduction extracts ◇P from {e any} WF-◇WX dining solution, so the
    box is a parameter. A box is called once per engine: it registers
    whatever per-process modules it needs (failure detectors) and returns
    the factory the reduction instantiates for each two-diner instance. *)

type box = Engine.t -> Reduction.Pair.dining_factory

val wf_box : box
(** The WF-◇WX box of [12] over one heartbeat ◇P module per process. *)

val kfair_box : box
(** The eventually k-fair timestamped scheduler over heartbeat ◇P. *)

val ftme_box : box
(** Perpetual-WX FTME over a trusting ground-truth oracle (detection
    delay 25): the reduction then extracts T (Section 9). *)

val hygienic_box : box
(** Hygienic dining with no failure detector, the negative control: a
    crashed diner keeps its forks, so it is not wait-free, and the
    reduction over it cannot detect that crash. *)

val boxes : (string * box) list
(** The four boxes by name: wf, kfair, ftme, hygienic. *)

(** {1 The reduction} *)

(** A full reduction deployment. *)
type extraction_run = {
  engine : Engine.t;
  extract : Reduction.Extract.t;
  onlines : (Reduction.Pair.t * Reduction.Lemmas.online) list;
}

val extraction :
  Engine.t -> lemmas:bool -> Reduction.Pair.dining_factory -> extraction_run
(** Deploy the reduction on every process of the engine, over the
    factory of a box already called on that engine, and with [lemmas]
    the online Lemma monitors on every pair. *)

val wf_extraction :
  ?seed:int64 ->
  ?adversary:Adversary.t ->
  ?windows:mistake_windows ->
  ?with_lemma_monitors:bool ->
  n:int ->
  unit ->
  extraction_run
(** ◇P extraction from the WF-◇WX black box (heartbeat ◇P underneath). *)

val ftme_extraction :
  ?seed:int64 ->
  ?adversary:Adversary.t ->
  ?detection_delay:int ->
  n:int ->
  unit ->
  extraction_run
(** T extraction from the perpetual-WX black box (trusting oracle
    underneath) — the Section 9 set-up. *)

val vulnerability : Engine.t -> mode:[ `Flawed_cm | `Our_reduction ] -> unit -> bool
(** The Section 3 scenario, deployed on a two-process engine: the subject
    (p0, which holds the edge's request token) falsely suspects the
    watcher (p1, which holds the fork) until t = 300, enters its critical
    section on the virtual fork during that prefix, and — as the [8]
    construction's subject — never exits. Returns the extracted
    "suspected?" output at the watcher. The flawed construction flips it
    forever; [`Our_reduction] converges (under [partial_sync ~gst:500],
    the set-up of [dinersim vulnerability]). *)
