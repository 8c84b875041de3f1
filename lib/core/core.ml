(** Umbrella module: the public API of the reproduction.

    {ol
    {- {!Dsim} — the asynchronous message-passing simulator (processes,
       guarded-command components, adversaries, crash faults, traces).}
    {- {!Graphs} — conflict graphs for dining instances.}
    {- {!Detectors} — failure detectors (heartbeat ◇P, ground-truth P and T,
       mistake injection) and the Chandra–Toueg property checkers.}
    {- {!Dining} — the dining-philosophers framework: WF-◇WX ([12]-style),
       hygienic baseline, eventually-fair variant, perpetual-WX FTME, and
       the exclusion/wait-freedom/fairness monitors.}
    {- {!Reduction} — the paper's contribution: Algorithms 1 and 2, the
       per-pair cell, the full extraction, the flawed [8] construction, and
       the executable Lemmas.}
    {- {!Ctm} — obstruction-free transactions + contention-manager boost.}
    {- {!Wsn} — sensor-network duty-cycle scheduling.}
    {- {!Agreement} — consensus and stable leader election over ◇P (the
       problems the paper's introduction motivates ◇P with).}
    {- {!Scenario} — one-call builders for the canonical experiments, and
       the black boxes the reduction runs over.}
    {- {!Cmdline} — shared command-line conventions (seed parsing).}
    {- {!Batch} — multi-seed sweeps and summary statistics.}} *)

module Dsim = Dsim
module Graphs = Graphs
module Detectors = Detectors
module Dining = Dining
module Reduction = Reduction
module Ctm = Ctm
module Wsn = Wsn
module Agreement = Agreement
module Scenario = Scenario
module Cmdline = Cmdline
module Batch = Batch
