(** Executable encodings of the paper's correctness lemmas.

    The proofs of Section 7 rest on a dozen lemmas about the reduction's
    variables, channels and schedules. Each is rendered here as a run-time
    predicate over one {!Pair} — the state invariants are checked online at
    every tick, the schedule/counting lemmas post-hoc over the trace — so
    every test run machine-checks the proof obligations:

    - Lemma 2: [(s_i <> eating) => ping_i].
    - Lemma 3: when [(s_i <> eating) /\ ping_i], no ping/ack of instance
      [i] is in transit between q.s_i and p.w_i.
    - Lemma 4: [(s_i = hungry) => (trigger = i)].
    - Lemma 5: during every completed eating session of subject [s_i],
      exactly one ping is sent and exactly one ack received.
    - Lemma 8 (suffix invariant): eventually, at any time some subject is
      eating (reported as the last violation time, which must stabilise).
    - Lemma 9: at any time some witness is thinking.
    - Lemmas 7 and 11: subjects and witnesses eat infinitely often
      (reported as eat counts, which must keep growing).
    - Lemma 12: between consecutive eating sessions of witness [w_i],
      witness [w_{1-i}] eats exactly once. *)

type report = {
  lemma : string;
  violations : string list;
  info : string;  (** Free-form statistics (e.g. counts, last times). *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

type online

val install_online : engine:Dsim.Engine.t -> pair:Pair.t -> online
(** Hook the per-tick state-invariant checks (Lemmas 2, 3, 4, 8, 9) into
    the engine. Violations are counted and the first ten kept (only
    those are formatted); Lemma 8 records the last tick its invariant
    did not hold.

    Per-tick cost is O(1) per pair. The hook reads the pair's four
    diner phases ({!Dining.Spec.handle.phase}) and the subject's
    {!Subject.t.trigger} and {!Subject.t.ping} as fields, testing phases
    with a [match]; it calls only {!Dsim.Engine.is_live} and, on an idle
    armed channel (Lemma 3's premise), two of four in-transit counts
    that the engine maintains ({!Dsim.Engine.in_flight_counter},
    registered here: ping_0/1 on the witness tag, ack_0/1 on the subject
    tag) instead of scanning the undelivered traffic; it reads the clock
    only to record a violation. Installing before the run registers the
    counts in O(1); installing mid-run seeds each with one scan. *)

val online_reports : online -> report list
(** Lemma 8's report is judged against the current engine time: its last
    violation must precede the final quarter of the run. *)

val trace_reports : engine:Dsim.Engine.t -> pair:Pair.t -> report list
(** Post-hoc schedule lemmas (5, 7, 11, 12) plus liveness of the subjects'
    hungry phases (Lemma 1) and finiteness of their eating sessions
    (Lemma 6), reported as L1, L5, L6, L7, L11 and L12. Sessions still
    open near the horizon are ignored. This is {!trace_reports_all} over
    [[pair]]. *)

val trace_reports_all : engine:Dsim.Engine.t -> pairs:Pair.t list -> report list list
(** {!trace_reports} of each pair, in order, from one fold over the trace.

    Cost: one pass over the trace and O(1) state per pair instance, so
    O(E + pairs) for a trace of E events and no array per event. A
    table from each pair's DX instance names and note infos
    ({!Subject.t.note_info}) leads each transition or note to its
    instance in one lookup. The fold keeps the subject's open stay,
    which it closes into segments by {!Dining.Monitor.is_segment}, the
    note and eat counts of Lemmas 5 and 12, and the witness's last
    eating start. Their windows (pings in [\[a, b)], acks in
    [(a, b\]], the other witness's eats in [(a, b)]) are settled by
    tick, not by trace position, so the events of one tick may come in
    any order. A pair's events must come in tick order, as the engine
    appends them; the fold raises [Invalid_argument] on one that goes
    back in time, and on two pairs that share an instance. *)
