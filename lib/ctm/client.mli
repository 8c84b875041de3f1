(** Transactional client, with or without a contention manager.

    Each transaction reads the store, "computes" for [compute_ticks], and
    tries to commit with a version-checked compare-and-swap; a failed swap
    is an abort and the transaction restarts. Without a contention manager
    this is the raw obstruction-free object: under contention most swaps
    fail. With one ([cm], any dining handle on a clique of the clients),
    the client acquires its critical section before running the transaction
    and keeps it until commit — during the manager's mistake-prone prefix
    concurrent transactions (and aborts) remain possible, but the eventual
    exclusion suffix makes every transaction run in isolation and succeed:
    obstruction freedom is boosted to wait freedom. *)

type stats = {
  mutable attempts : int;
  mutable commits : int;
  mutable aborts : int;
  mutable commit_times : Dsim.Types.time list;  (** Reverse-chronological. *)
}

val component :
  Dsim.Context.t ->
  store:Dsim.Types.pid ->
  ?cm:Dining.Spec.handle ->
  ?compute_ticks:int ->
  unit ->
  Dsim.Component.t * stats
