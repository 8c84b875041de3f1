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
    (Lemma 6). Sessions still open near the horizon are ignored.

    Cost: one {!Dining.Monitor.Index} per dining instance of the pair
    (two linear passes over the trace each) and two passes for Lemma 5's
    notes, matched against the subject's {!Subject.t.note_info}; every
    lemma then reads segments, eating starts and meal counts off the two
    indexes. Lemmas 5 and 12 count notes and eats per window in one sweep
    over each sorted time array, so the whole check is linear in the
    trace. *)

val trace_reports_on :
  indexes:Dining.Monitor.Index.t array -> engine:Dsim.Engine.t -> pair:Pair.t -> report list
(** {!trace_reports} on indexes of [pair.dx_instances] (in that order)
    that the caller has already built from the engine's trace. *)
