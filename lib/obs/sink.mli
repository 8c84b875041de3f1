(** Pluggable trace sinks.

    A sink is a streaming consumer of {!Dsim.Trace} entries. Sinks attach
    to a live trace with {!attach} (which first replays any entries already
    recorded, then subscribes for the rest), so a JSONL file written by a
    streaming run contains exactly the entries an in-memory trace of the
    same run would hold — including events logged during deployment setup,
    before the sink existed.

    Combined with [Engine.create ~retain_trace:false], the JSONL file sink
    lets million-tick runs stream their event log to disk instead of
    growing an in-memory array; {!read_jsonl} rebuilds an in-memory trace
    from such a file so the pure property checkers can run offline. *)

type t = {
  emit : Dsim.Trace.entry -> unit;
  close : unit -> unit;  (** Flush and release resources; idempotent. *)
}

val null : t
(** Discards everything. *)

val memory : unit -> t * Dsim.Trace.t
(** A sink that appends into a fresh in-memory trace (also returned). *)

val jsonl_file : string -> t
(** Streams entries to [path], one JSON object per line (see
    {!entry_to_json} for the schema). Buffered; [close] flushes. *)

val tee : t list -> t
(** Fans every entry out to all sinks, in order. [close] closes all. *)

val attach : Dsim.Trace.t -> t -> unit
(** Replay already-recorded entries into the sink, then subscribe it to
    all future appends. *)

val entry_to_json : Dsim.Trace.entry -> Json.t
(** One entry as a flat object: [{"at":3,"ev":"transition","instance":"i",
    "pid":0,"from":"thinking","to":"hungry"}]; suspicion events carry
    [detector]/[owner]/[target], crashes [pid], notes [pid]/[label]/[info]. *)

val entry_of_json : Json.t -> Dsim.Trace.entry
(** Inverse of {!entry_to_json}. Raises [Failure] on schema mismatch,
    including a negative pid, owner or target. *)

val read_jsonl : string -> Dsim.Trace.t
(** Load a JSONL trace file back into an in-memory trace (blank lines are
    skipped). Raises [Failure] on malformed lines, [Sys_error] on IO. *)
