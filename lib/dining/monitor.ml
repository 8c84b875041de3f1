open Dsim

type violation = {
  at : Types.time;
  p : Types.pid;
  q : Types.pid;
}

let is_segment ~(since : Types.time) ~at = at > since

module Index = struct
  (* One instance's transitions regrouped by diner.

     Two linear passes over the trace (count, then fill) lay the
     transitions out in compressed rows: diner [p]'s are
     [trans.(off.(p)) .. trans.(off.(p + 1) - 1)], in trace order, each
     one int packing the tick and the phase entered ([at * 4 + code]).
     Sizes are exact, so building never grows an array. Every reader
     below takes segments, eating intervals and meal counts off this one
     layout. *)

  let code = function
    | Types.Thinking -> 0
    | Types.Hungry -> 1
    | Types.Eating -> 2
    | Types.Exiting -> 3

  let phase_of_code = [| Types.Thinking; Types.Hungry; Types.Eating; Types.Exiting |]
  let thinking = code Types.Thinking
  let hungry = code Types.Hungry
  let eating = code Types.Eating
  let exiting = code Types.Exiting
  let never = max_int (* crash time of a diner that never crashes *)

  type t = {
    instance : string;
    off : int array; (* length npids + 1 *)
    trans : int array;
    first : int array; (* per pid, the code of its first transition's [from_] *)
    crash : int array; (* first crash per pid, [never] if none *)
  }

  (* [a] with room for index [i], new slots [fill]. *)
  let grown a i fill =
    if i < Array.length a then a
    else begin
      let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let build trace ~instance =
    let counts = ref [||] and crash = ref [||] in
    Trace.iter trace (fun at ev ->
        match ev with
        | Trace.Transition { instance = i; pid; _ } when pid >= 0 && String.equal i instance ->
            counts := grown !counts pid 0;
            !counts.(pid) <- !counts.(pid) + 1
        | Trace.Crash { pid } when pid >= 0 ->
            crash := grown !crash pid never;
            if !crash.(pid) = never then !crash.(pid) <- at
        | _ -> ());
    let counts = !counts in
    let npids = Array.length counts in
    let off = Array.make (npids + 1) 0 in
    for p = 0 to npids - 1 do
      off.(p + 1) <- off.(p) + counts.(p)
    done;
    let trans = Array.make off.(npids) 0 and first = Array.make npids thinking in
    let fill = Array.sub off 0 npids in
    Trace.iter trace (fun at ev ->
        match ev with
        | Trace.Transition { instance = i; pid; from_; to_ }
          when pid >= 0 && String.equal i instance ->
            let k = fill.(pid) in
            (* The merge and the overtaking count need each diner's
               intervals in time order. *)
            if k > off.(pid) && at < trans.(k - 1) asr 2 then
              invalid_arg "Dining.Monitor: a diner's transitions go back in time";
            if k = off.(pid) then first.(pid) <- code from_;
            trans.(k) <- (at * 4) + code to_;
            fill.(pid) <- k + 1
        | _ -> ());
    { instance; off; trans; first; crash = !crash }

  let npids ix = Array.length ix.off - 1
  let row_start ix pid = if pid >= 0 && pid < npids ix then ix.off.(pid) else 0
  let row_stop ix pid = if pid >= 0 && pid < npids ix then ix.off.(pid + 1) else 0
  let crash_time ix pid = if pid >= 0 && pid < Array.length ix.crash then ix.crash.(pid) else never
  let crashed ix pid = crash_time ix pid <> never

  (* A cursor over diner [pid]'s phase history: after [next] returns
     true, [a, b) is the next segment and [ph] its phase, by
     [is_segment]. The diner holds [initial] from tick 0 to its first
     transition. *)
  type segments = {
    ix : t;
    horizon : Types.time;
    stop : int; (* end of the row *)
    mutable k : int; (* next transition; [stop + 1] once the horizon segment is out *)
    mutable phase : int; (* phase entered at [since], not yet emitted *)
    mutable since : Types.time;
    mutable a : Types.time;
    mutable b : Types.time;
    mutable ph : int;
  }

  let segments ?(initial = thinking) ix pid ~horizon =
    {
      ix;
      horizon;
      stop = row_stop ix pid;
      k = row_start ix pid;
      phase = initial;
      since = 0;
      a = 0;
      b = 0;
      ph = 0;
    }

  let rec next s =
    if s.k < s.stop then begin
      let x = s.ix.trans.(s.k) in
      let start = s.since and ph = s.phase in
      s.k <- s.k + 1;
      s.phase <- x land 3;
      s.since <- x asr 2;
      if is_segment ~since:start ~at:s.since then begin
        s.a <- start;
        s.b <- s.since;
        s.ph <- ph;
        true
      end
      else next s
    end
    else if s.k = s.stop && is_segment ~since:s.since ~at:s.horizon then begin
      s.k <- s.stop + 1;
      s.a <- s.since;
      s.b <- s.horizon;
      s.ph <- s.phase;
      true
    end
    else false

  let iter_codes ix pid ~horizon f =
    let s = segments ix pid ~horizon in
    while next s do
      f s.a s.b s.ph
    done

  let iter_segments ix ~pid ~horizon f =
    iter_codes ix pid ~horizon (fun a b ph -> f a b phase_of_code.(ph))

  let iter_spans ix ~horizon f =
    for pid = 0 to npids ix - 1 do
      if row_stop ix pid > row_start ix pid then begin
        let s = segments ~initial:ix.first.(pid) ix pid ~horizon in
        while next s do
          (* [s.k] passes [s.stop] only for the segment the horizon cuts. *)
          f pid s.a s.b phase_of_code.(s.ph) (s.k <= s.stop)
        done
      end
    done

  let eat_count ix ~pid =
    let meals = ref 0 in
    for k = row_start ix pid to row_stop ix pid - 1 do
      if ix.trans.(k) land 3 = eating then incr meals
    done;
    !meals

  let eating_starts ix ~pid =
    let starts = Array.make (eat_count ix ~pid) 0 and i = ref 0 in
    for k = row_start ix pid to row_stop ix pid - 1 do
      if ix.trans.(k) land 3 = eating then begin
        starts.(!i) <- ix.trans.(k) asr 2;
        incr i
      end
    done;
    starts

  (* Whether the cursor's segment is in phase [c], reaches the horizon and
     began before [horizon - slack]. *)
  let stuck s ~slack c = s.ph = c && s.b >= s.horizon && s.a < s.horizon - slack

  let rec any_stuck s ~slack c = next s && (stuck s ~slack c || any_stuck s ~slack c)

  (* The three checks [Check.Runner] judges every run with build no
     closure, detail or string on a run that passes them, only their
     segment cursors, and return this one verdict. *)
  let pass = { Detectors.Properties.holds = true; details = [] }

  let verdict = function
    | [] -> pass
    | details -> { Detectors.Properties.holds = false; details }

  (* Details newest first: pids descending, later segments first.
     [describe s pid] words the stuck segment under [s]. *)
  let stuck_verdict ix ~n ~horizon ~slack c describe =
    let details = ref [] in
    for pid = 0 to n - 1 do
      if not (crashed ix pid) then begin
        let s = segments ix pid ~horizon in
        while next s do
          if stuck s ~slack c then details := describe s pid :: !details
        done
      end
    done;
    verdict !details

  let never_ate s pid =
    Printf.sprintf "[%s] correct p%d hungry since t=%d never ate (horizon %d)" s.ix.instance pid
      s.a s.horizon

  let stuck_exiting s pid =
    Printf.sprintf "[%s] correct p%d stuck exiting since t=%d" s.ix.instance pid s.a

  let wait_freedom ix ~n ~horizon ~slack = stuck_verdict ix ~n ~horizon ~slack hungry never_ate

  let exiting_finite ix ~n ~horizon ~slack =
    stuck_verdict ix ~n ~horizon ~slack exiting stuck_exiting

  let live_eating_intervals ix ~pid ~horizon =
    let tc = crash_time ix pid and acc = ref [] in
    iter_codes ix pid ~horizon (fun a b ph ->
        if ph = eating && a < tc then acc := (a, if b < tc then b else tc) :: !acc);
    List.rev !acc

  let compare_violation v1 v2 =
    match Int.compare v1.at v2.at with
    | 0 -> ( match Int.compare v1.p v2.p with 0 -> Int.compare v1.q v2.q | c -> c)
    | c -> c

  (* Moves [s] to its diner's next eating interval that starts before the
     diner's crash [tc]; false when none is left (intervals are in time
     order, so once one starts at or after [tc] all later ones do). A
     crashed process is no longer live, so its intervals end at [tc]:
     post-crash "eating" cannot violate ◇WX. *)
  let rec next_live_eating s ~tc =
    next s && if s.ph = eating then s.a < tc else next_live_eating s ~tc

  (* Each diner's live eating intervals are sorted and disjoint, so one
     two-pointer merge per edge finds every overlapping pair: the interval
     that ends first cannot overlap anything later in the other row. The
     cost is linear in the two diners' transitions, where comparing every
     pair of intervals was their product. This conses onto [acc] the
     overlaps of edge [(p, q)] that start at or after [from]. *)
  let edge_violations ix ~horizon ~from p q acc =
    let tp = crash_time ix p and tq = crash_time ix q in
    let sp = segments ix p ~horizon and sq = segments ix q ~horizon in
    let acc = ref acc in
    let more_p = ref (next_live_eating sp ~tc:tp) and more_q = ref (next_live_eating sq ~tc:tq) in
    while !more_p && !more_q do
      let b1 = if sp.b < tp then sp.b else tp and b2 = if sq.b < tq then sq.b else tq in
      let lo = if sp.a > sq.a then sp.a else sq.a and hi = if b1 < b2 then b1 else b2 in
      if lo < hi && lo >= from then acc := { at = lo; p; q } :: !acc;
      if b1 <= b2 then more_p := next_live_eating sp ~tc:tp
      else more_q := next_live_eating sq ~tc:tq
    done;
    !acc

  (* The violations at or after [from], chronological. *)
  let violations_from ix ~graph ~horizon ~from =
    let acc = ref [] in
    for p = 0 to Graphs.Conflict_graph.n graph - 1 do
      for i = 0 to Graphs.Conflict_graph.degree graph p - 1 do
        let q = Graphs.Conflict_graph.neighbor graph p i in
        if p < q then acc := edge_violations ix ~horizon ~from p q !acc
      done
    done;
    (* [List.sort] builds its closures before it looks at the length. *)
    match !acc with ([] | [ _ ]) as sorted -> sorted | vs -> List.sort compare_violation vs

  let exclusion_violations ix ~graph ~horizon = violations_from ix ~graph ~horizon ~from:min_int

  let last_violation_time ix ~graph ~horizon =
    match List.rev (exclusion_violations ix ~graph ~horizon) with
    | [] -> None
    | v :: _ -> Some v.at

  (* Mistakes before [suffix_from] are allowed, so they are not built. *)
  let eventual_weak_exclusion ix ~graph ~horizon ~suffix_from =
    match violations_from ix ~graph ~horizon ~from:suffix_from with
    | [] -> pass
    | vs ->
        verdict
          (List.map
             (fun v ->
               Printf.sprintf
                 "[%s] live neighbors p%d and p%d eating simultaneously at t=%d (suffix from %d)"
                 ix.instance v.p v.q v.at suffix_from)
             vs)

  let perpetual_weak_exclusion ix ~graph ~horizon =
    eventual_weak_exclusion ix ~graph ~horizon ~suffix_from:0

  let starved ix ~n ~horizon ~slack =
    let acc = ref [] in
    for pid = n - 1 downto 0 do
      if (not (crashed ix pid)) && any_stuck (segments ix pid ~horizon) ~slack hungry then
        acc := pid :: !acc
    done;
    !acc

  (* The number of elements of the sorted [a] below [t]. *)
  let count_below a t =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo

  let max_overtaking ix ~graph ~after ~horizon =
    let n = Graphs.Conflict_graph.n graph in
    let starts = Array.init n (fun pid -> eating_starts ix ~pid) in
    let worst = ref 0 in
    for p = 0 to n - 1 do
      if not (crashed ix p) then
        iter_codes ix p ~horizon (fun a b ph ->
            if ph = hungry && a >= after then
              Graphs.Conflict_graph.iter_neighbors graph p (fun q ->
                  let c = count_below starts.(q) b - count_below starts.(q) a in
                  if c > !worst then worst := c))
    done;
    !worst

  let failure_locality ix ~graph ~horizon ~slack =
    let crashed = List.filter (crashed ix) (List.init (Array.length ix.crash) Fun.id) in
    let victims = starved ix ~n:(Graphs.Conflict_graph.n graph) ~horizon ~slack in
    List.fold_left
      (fun acc pid ->
        let nearest =
          List.filter_map (fun c -> Graphs.Conflict_graph.distance graph pid c) crashed
          |> function
          | [] -> None
          | ds -> Some (List.fold_left min max_int ds)
        in
        match (acc, nearest) with
        | None, _ | _, None -> None
        | Some worst, Some d -> Some (max worst d))
      (Some 0) victims

  let fairness_index ix ~pids =
    let xs = List.map (fun pid -> float_of_int (eat_count ix ~pid)) pids in
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)
end

let wait_freedom trace ~instance ~n ~horizon ~slack =
  Index.wait_freedom (Index.build trace ~instance) ~n ~horizon ~slack

let eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from =
  Index.eventual_weak_exclusion (Index.build trace ~instance) ~graph ~horizon ~suffix_from

let exiting_finite trace ~instance ~n ~horizon ~slack =
  Index.exiting_finite (Index.build trace ~instance) ~n ~horizon ~slack

let eat_count trace ~instance ~pid = Index.eat_count (Index.build trace ~instance) ~pid
