(* Dining.Monitor as it was before the phase index: every check filters
   the whole trace once per diner (Trace_reference.phase_timeline and
   friends), and eventual weak exclusion compares every pair of eating
   intervals of every edge, so checking is O(n x events) plus a quadratic
   term per edge. Kept as the oracle for the one-pass index that replaced it;
   test_monitor.ml demands identical verdicts, details, violation lists
   and meal counts from both. *)

open Dsim

type violation = {
  at : Types.time;
  p : Types.pid;
  q : Types.pid;
}

let clip_at_crash intervals crash =
  match crash with
  | None -> intervals
  | Some tc ->
      List.filter_map
        (fun (a, b) -> if a >= tc then None else Some (a, min b tc))
        intervals

let live_eating_intervals trace ~instance ~pid ~horizon =
  let crash = Types.Pidmap.find_opt pid (Trace.crash_times trace) in
  clip_at_crash (Trace_reference.eating_intervals trace ~instance ~pid ~horizon) crash

let exclusion_violations trace ~instance ~graph ~horizon =
  let n = Graphs.Conflict_graph.n graph in
  let intervals =
    Array.init n (fun pid -> live_eating_intervals trace ~instance ~pid ~horizon)
  in
  let acc = ref [] in
  List.iter
    (fun (p, q) ->
      List.iter
        (fun (a1, b1) ->
          List.iter
            (fun (a2, b2) ->
              let lo = max a1 a2 and hi = min b1 b2 in
              if lo < hi then acc := { at = lo; p; q } :: !acc)
            intervals.(q))
        intervals.(p))
    (Graphs.Conflict_graph.edges graph);
  let cmp v1 v2 =
    match Int.compare v1.at v2.at with
    | 0 -> ( match Int.compare v1.p v2.p with 0 -> Int.compare v1.q v2.q | c -> c)
    | c -> c
  in
  List.sort cmp !acc

let last_violation_time trace ~instance ~graph ~horizon =
  match List.rev (exclusion_violations trace ~instance ~graph ~horizon) with
  | [] -> None
  | v :: _ -> Some v.at

let eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from =
  let late =
    List.filter (fun v -> v.at >= suffix_from) (exclusion_violations trace ~instance ~graph ~horizon)
  in
  let details =
    List.map
      (fun v ->
        Printf.sprintf "[%s] live neighbors p%d and p%d eating simultaneously at t=%d (suffix from %d)"
          instance v.p v.q v.at suffix_from)
      late
  in
  { Detectors.Properties.holds = details = []; details }

let perpetual_weak_exclusion trace ~instance ~graph ~horizon =
  eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from:0

let wait_freedom trace ~instance ~n ~horizon ~slack =
  let crash_times = Trace.crash_times trace in
  let details = ref [] in
  for pid = 0 to n - 1 do
    if not (Types.Pidmap.mem pid crash_times) then
      List.iter
        (fun (a, b, ph) ->
          if Types.phase_equal ph Types.Hungry && b >= horizon && a < horizon - slack then
            details :=
              Printf.sprintf "[%s] correct p%d hungry since t=%d never ate (horizon %d)"
                instance pid a horizon
              :: !details)
        (Trace_reference.phase_timeline trace ~instance ~pid ~horizon)
  done;
  { Detectors.Properties.holds = !details = []; details = !details }

let exiting_finite trace ~instance ~n ~horizon ~slack =
  let crash_times = Trace.crash_times trace in
  let details = ref [] in
  for pid = 0 to n - 1 do
    if not (Types.Pidmap.mem pid crash_times) then
      List.iter
        (fun (a, b, ph) ->
          if Types.phase_equal ph Types.Exiting && b >= horizon && a < horizon - slack then
            details :=
              Printf.sprintf "[%s] correct p%d stuck exiting since t=%d" instance pid a
              :: !details)
        (Trace_reference.phase_timeline trace ~instance ~pid ~horizon)
  done;
  { Detectors.Properties.holds = !details = []; details = !details }

let eat_count trace ~instance ~pid =
  Trace_reference.transitions ~instance ~pid trace
  |> List.filter (fun (e : Trace.entry) ->
         match e.ev with
         | Trace.Transition { to_ = Types.Eating; _ } -> true
         | _ -> false)
  |> List.length

let hungry_segments trace ~instance ~pid ~horizon =
  Trace_reference.phase_timeline trace ~instance ~pid ~horizon
  |> List.filter_map (fun (a, b, ph) ->
         if Types.phase_equal ph Types.Hungry then Some (a, b) else None)

let eating_starts trace ~instance ~pid =
  Trace_reference.transitions ~instance ~pid trace
  |> List.filter_map (fun (e : Trace.entry) ->
         match e.ev with
         | Trace.Transition { to_ = Types.Eating; _ } -> Some e.at
         | _ -> None)

let max_overtaking trace ~instance ~graph ~after ~horizon =
  let crash_times = Trace.crash_times trace in
  let n = Graphs.Conflict_graph.n graph in
  let starts = Array.init n (fun pid -> eating_starts trace ~instance ~pid) in
  let worst = ref 0 in
  for p = 0 to n - 1 do
    if not (Types.Pidmap.mem p crash_times) then
      List.iter
        (fun (a, b) ->
          if a >= after then
            Graphs.Conflict_graph.iter_neighbors graph p (fun q ->
                let c = List.length (List.filter (fun t -> t >= a && t < b) starts.(q)) in
                worst := max !worst c))
        (hungry_segments trace ~instance ~pid:p ~horizon)
  done;
  !worst

let starved trace ~instance ~n ~horizon ~slack =
  let crash_times = Trace.crash_times trace in
  List.filter
    (fun pid ->
      (not (Types.Pidmap.mem pid crash_times))
      && List.exists
           (fun (a, b, ph) ->
             Types.phase_equal ph Types.Hungry && b >= horizon && a < horizon - slack)
           (Trace_reference.phase_timeline trace ~instance ~pid ~horizon))
    (List.init n Fun.id)

let failure_locality trace ~instance ~graph ~horizon ~slack =
  let n = Graphs.Conflict_graph.n graph in
  let crashed =
    List.map fst (Types.Pidmap.bindings (Trace.crash_times trace))
  in
  let victims = starved trace ~instance ~n ~horizon ~slack in
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

let fairness_index trace ~instance ~pids =
  let xs = List.map (fun pid -> float_of_int (eat_count trace ~instance ~pid)) pids in
  let n = float_of_int (List.length xs) in
  let s = List.fold_left ( +. ) 0.0 xs in
  let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)
