open Dsim

type config = {
  base : Check.Config.t;
  por : bool;
  max_schedules : int;
  split_depth : int;
  jobs : int;
  crash_budget : int;
  crash_grid : int;
  collect_schedules : bool;
}

let default ~base =
  {
    base;
    por = true;
    max_schedules = 20_000;
    split_depth = 4;
    jobs = 1;
    crash_budget = 0;
    crash_grid = 4;
    collect_schedules = false;
  }

type violation = { crash_index : int; schedule_index : int; repro : Check.Repro.t }

type stats = {
  crash_schedules : int;
  schedules : int;
  pruned : int;
  violation_count : int;
  max_decisions : int;
  truncated : bool;
}

type result = {
  stats : stats;
  violations : violation list;
  failed_checks : string list;
  schedules : Adversary.decision array list;
}

let dls_bounds (c : Check.Config.t) =
  match c.Check.Config.adversary with
  | Check.Config.Dls { delta; phi } -> (delta, phi)
  | _ -> invalid_arg "Mc.Explore: the config adversary must be the Dls family"

(* ------------------------------------------------------------------ *)
(* The decision tape. A search keeps one tape of int-coded decisions: a
   delay is itself (>= 1), an offered step [offered], a withheld one
   [withheld]. A node of the DFS tree is the prefix [tape.(0 .. len-1)];
   visiting it re-executes the engine, replaying the prefix and extending
   it with first choices (step offered, delay 1), each fresh position
   pushing its untaken siblings as (position, decision) pairs on a stack
   whose top is the next node in DFS order. A popped sibling's prefix is
   still on the tape: a visit replaying [len] decisions pushes only
   positions [>= len], so positions never decrease towards the top of the
   stack, every visit since the sibling's push lay below its parent, and
   each rewrote only positions from the sibling's own onwards.

   The controller mirrors the engine's weak-fairness accounting
   (engine.ml: [forced = clock - last_step >= fairness_bound], and a step
   — offered or forced — resets [last_step]) so forced queries never
   branch, and maintains the sleep set along the replayed prefix so
   reduction state needs no snapshotting: a withheld step at an unforced,
   awake pid can only be a descended sibling, which is exactly the "put it
   to sleep" case. *)

let offered = 0
let withheld = -1

exception Cut
(* Raised by the controller to abandon an engine run once the root-split
   depth is reached; the partial tape becomes a subtree root. *)

type search = {
  graph : Graphs.Conflict_graph.t;
  delta : int;
  phi : int;
  por : bool;
  cut : int; (* decisions after which a run is abandoned *)
  mutable tape : int array;
  mutable len : int; (* the prefix the next visit replays *)
  mutable count : int; (* decisions the current run has answered *)
  sibs : (int * int) Vec.t; (* pending (position, decision), top last *)
  last_step : int array; (* per pid, reset at each visit *)
  sleep : bool array;
  mutable pruned : int; (* fresh step branches the reduction removed *)
}

let search ?(cut = max_int) ~graph ~delta ~phi ~por () =
  let n = Graphs.Conflict_graph.n graph in
  {
    graph;
    delta;
    phi;
    por;
    cut;
    tape = [||];
    len = 0;
    count = 0;
    sibs = Vec.create ();
    last_step = Array.make n 0;
    sleep = Array.make n false;
    pruned = 0;
  }

(* Make the top sibling the next node: its decision goes on the tape at
   its position, which ends the prefix. *)
let pop s =
  let pos, code = Vec.get s.sibs (Vec.length s.sibs - 1) in
  Vec.remove_last s.sibs;
  s.tape.(pos) <- code;
  s.len <- pos + 1

(* Record the answer to query [i]; at a replayed position the tape
   already holds it. *)
let answer s i code =
  if i = Array.length s.tape then begin
    let bigger = Array.make (max 16 (2 * i)) 0 in
    Array.blit s.tape 0 bigger 0 i;
    s.tape <- bigger
  end;
  s.tape.(i) <- code;
  s.count <- i + 1

let decisions s =
  Array.init s.count (fun i ->
      let code = s.tape.(i) in
      if code >= 1 then Adversary.Delay code else Adversary.Step (code = offered))

(* The controller [Adversary.drive] hands each query to, built once per
   search; it ignores the base adversary's decision. A fresh position
   takes the first branch and pushes its siblings; pushing a delay's
   siblings from [delta] down leaves the smallest on top. *)
let controller s =
  let wake_one q = s.sleep.(q) <- false in
  let wake pid =
    s.sleep.(pid) <- false;
    Graphs.Conflict_graph.iter_neighbors s.graph pid wake_one
  in
  let delay ~now:_ ~src:_ ~dst _ =
    let i = s.count in
    if i >= s.cut then raise Cut;
    let code =
      if i < s.len then s.tape.(i)
      else begin
        for d = s.delta downto 2 do
          Vec.add_last s.sibs (i, d)
        done;
        1
      end
    in
    (* Query kinds are deterministic in the answered prefix, so a
       replayed decision always matches its query. *)
    assert (code >= 1);
    answer s i code;
    wake dst;
    code
  in
  let step ~now pid _ =
    let i = s.count in
    if i >= s.cut then raise Cut;
    let forced = now - s.last_step.(pid) >= s.phi in
    let code =
      if i < s.len then s.tape.(i)
      else if forced then offered
      else if s.por && s.sleep.(pid) then begin
        s.pruned <- s.pruned + 1;
        withheld
      end
      else begin
        Vec.add_last s.sibs (i, withheld);
        offered
      end
    in
    assert (code <= offered);
    answer s i code;
    if code = offered || forced then begin
      s.last_step.(pid) <- now;
      wake pid
    end
    else s.sleep.(pid) <- true;
    code = offered
  in
  (delay, step)

(* The one run plan of a search: the config's builder, conflict graph
   and adversary, driven by the search's controller, which [visit]
   rewinds before each run. *)
let plan s ~registry cfg = Check.Runner.plan ~drive:(controller s) ~registry cfg

(* One node visit: re-execute the engine on the tape's prefix and return
   the run's checks. Raises [Cut] when the search has a cut and the run
   reaches it. *)
let visit s plan =
  s.count <- 0;
  Array.fill s.last_step 0 (Array.length s.last_step) 0;
  Array.fill s.sleep 0 (Array.length s.sleep) false;
  Check.Runner.judge plan

(* ------------------------------------------------------------------ *)
(* Phase 1: sequential root split. DFS down to [split_depth] decisions,
   producing the ordered frontier — completed short schedules stay
   leaves; everything else becomes a subtree root for phase 2. *)

type item =
  | Leaf of { decisions : Adversary.decision array; checks : Obs.Report.check list }
  | Subtree of int array (* the root's coded prefix *)

let split ~registry ~graph ~delta ~phi ~por ~split_depth cfg =
  let s = search ~cut:split_depth ~graph ~delta ~phi ~por () in
  let plan = plan s ~registry cfg in
  let items = ref [] (* reversed enumeration order *) in
  let rec loop () =
    (if s.len >= split_depth then items := Subtree (Array.sub s.tape 0 s.len) :: !items
     else
       match visit s plan with
       | checks -> items := Leaf { decisions = decisions s; checks } :: !items
       | exception Cut -> items := Subtree (Array.sub s.tape 0 s.count) :: !items);
    if Vec.length s.sibs > 0 then begin
      pop s;
      loop ()
    end
  in
  loop ();
  (List.rev !items, s.pruned)

(* ------------------------------------------------------------------ *)
(* Phase 2: one work item, on a pool worker. Everything it needs derives
   from its item; results merge in item order (Pool.map's contract).

   Only the first [kept] violations in enumeration order get an artifact;
   later ones are counted, and their failed checks join the union. Each
   item keeps its own first [kept], so the merge keeps the global first
   [kept]. *)

let kept = 16

type worker_result = {
  mutable w_schedules : int;
  mutable w_pruned : int;
  mutable w_max_decisions : int;
  mutable w_truncated : bool;
  mutable w_violation_count : int;
  mutable w_violations : (int * Check.Repro.t) list;
      (* the first [kept], by local schedule index, newest first *)
  mutable w_failed : string list; (* each failed check name once *)
  mutable w_collected : Adversary.decision array list; (* newest first *)
}

let worker () =
  {
    w_schedules = 0;
    w_pruned = 0;
    w_max_decisions = 0;
    w_truncated = false;
    w_violation_count = 0;
    w_violations = [];
    w_failed = [];
    w_collected = [];
  }

(* Count one complete schedule. [decisions] builds its decision array,
   which only a kept violation or [collect] needs. *)
let record_schedule w ~collect ~cfg decisions checks =
  if collect then w.w_collected <- decisions () :: w.w_collected;
  (match Check.Runner.failed checks with
  | [] -> ()
  | failed ->
      List.iter
        (fun name ->
          if not (List.exists (String.equal name) w.w_failed) then
            w.w_failed <- name :: w.w_failed)
        failed;
      if w.w_violation_count < kept then begin
        let decisions = decisions () in
        let overrides = List.mapi (fun i d -> (i, d)) (Array.to_list decisions) in
        let repro =
          Check.Repro.v ~config:cfg ~len:(Array.length decisions) ~overrides ~checks
        in
        w.w_violations <- (w.w_schedules, repro) :: w.w_violations
      end;
      w.w_violation_count <- w.w_violation_count + 1);
  w.w_schedules <- w.w_schedules + 1

let explore_subtree ~registry ~graph ~delta ~phi ~por ~budget ~collect cfg root =
  let s = search ~graph ~delta ~phi ~por () in
  let plan = plan s ~registry cfg in
  s.tape <- Array.copy root;
  s.len <- Array.length root;
  let current () = decisions s in
  let w = worker () in
  let rec loop () =
    let checks = visit s plan in
    w.w_max_decisions <- max w.w_max_decisions s.count;
    record_schedule w ~collect ~cfg current checks;
    if Vec.length s.sibs > 0 then
      if w.w_schedules >= budget then w.w_truncated <- true
      else begin
        pop s;
        loop ()
      end
  in
  loop ();
  w.w_pruned <- s.pruned;
  w

(* Phase 1 already counted a leaf's prunes. *)
let leaf_result ~collect ~cfg decisions checks =
  let w = worker () in
  w.w_max_decisions <- Array.length decisions;
  record_schedule w ~collect ~cfg (fun () -> decisions) checks;
  w

(* ------------------------------------------------------------------ *)
(* Crash-schedule enumeration: all sorted pid/tick assignments of size up
   to the budget, smallest first, pids ascending, ticks ascending — a
   canonical order so reports are stable. *)

let crash_schedules mc =
  let n = Check.Config.n_procs mc.base in
  let horizon = mc.base.Check.Config.horizon in
  let grid = max 1 mc.crash_grid in
  let ticks =
    let rec go t acc = if t > horizon then List.rev acc else go (t + grid) (t :: acc) in
    go grid []
  in
  let rec extend first_pid size acc =
    if size = 0 then [ List.rev acc ]
    else
      List.concat_map
        (fun pid ->
          List.concat_map (fun t -> extend (pid + 1) (size - 1) ((pid, t) :: acc)) ticks)
        (List.init (n - first_pid) (fun i -> first_pid + i))
  in
  List.concat_map
    (fun size -> extend 0 size [])
    (List.init (max 0 mc.crash_budget + 1) Fun.id)

(* ------------------------------------------------------------------ *)

let run ?progress ?metrics ~registry mc =
  let delta, phi = dls_bounds mc.base in
  (match mc.base.Check.Config.handicap with
  | None -> ()
  | Some _ -> invalid_arg "Mc.Explore.run: handicapped configs are not explorable");
  if mc.split_depth < 0 then invalid_arg "Mc.Explore.run: split_depth must be >= 0";
  if mc.max_schedules < 1 then invalid_arg "Mc.Explore.run: max_schedules must be >= 1";
  let graph = Check.Config.graph mc.base in
  let por = mc.por in
  let crash_scheds = crash_schedules mc in
  let schedules = ref 0 in
  let pruned = ref 0 in
  let max_decisions = ref 0 in
  let truncated = ref false in
  let violation_count = ref 0 in
  let violations = ref [] (* the first [kept], reversed global order *) in
  let failed = ref [] in
  let collected = ref [] (* reversed global order *) in
  List.iteri
    (fun crash_index crashes ->
      let cfg = { mc.base with Check.Config.crashes = crashes } in
      let items, split_pruned =
        split ~registry ~graph ~delta ~phi ~por ~split_depth:mc.split_depth cfg
      in
      pruned := !pruned + split_pruned;
      let items = Array.of_list items in
      let results =
        Exec.Pool.map ~jobs:(max 1 mc.jobs) (Array.length items) (fun i ->
            match items.(i) with
            | Leaf { decisions; checks } ->
                leaf_result ~collect:mc.collect_schedules ~cfg decisions checks
            | Subtree root ->
                explore_subtree ~registry ~graph ~delta ~phi ~por
                  ~budget:mc.max_schedules ~collect:mc.collect_schedules cfg root)
      in
      Array.iter
        (fun w ->
          List.iter
            (fun (local, repro) ->
              if List.length !violations < kept then
                violations :=
                  { crash_index; schedule_index = !schedules + local; repro } :: !violations)
            (List.rev w.w_violations);
          violation_count := !violation_count + w.w_violation_count;
          failed := w.w_failed @ !failed;
          collected := w.w_collected @ !collected;
          schedules := !schedules + w.w_schedules;
          pruned := !pruned + w.w_pruned;
          max_decisions := max !max_decisions w.w_max_decisions;
          truncated := !truncated || w.w_truncated)
        results;
      match progress with
      | None -> ()
      | Some f ->
          f
            {
              crash_schedules = crash_index + 1;
              schedules = !schedules;
              pruned = !pruned;
              violation_count = !violation_count;
              max_decisions = !max_decisions;
              truncated = !truncated;
            })
    crash_scheds;
  let stats =
    {
      crash_schedules = List.length crash_scheds;
      schedules = !schedules;
      pruned = !pruned;
      violation_count = !violation_count;
      max_decisions = !max_decisions;
      truncated = !truncated;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let bump name v = Obs.Metrics.incr ~by:v (Obs.Metrics.counter m name) in
      bump "mc_schedules" stats.schedules;
      bump "mc_pruned_branches" stats.pruned;
      bump "mc_violations" stats.violation_count;
      bump "mc_crash_schedules" stats.crash_schedules);
  {
    stats;
    violations = List.rev !violations;
    failed_checks = List.sort_uniq String.compare !failed;
    schedules = List.rev !collected;
  }
