(* The per-diner trace queries the library offered before the phase
   index (Dining.Monitor.Index) became the one phase history: each one
   filters the whole trace, so a check over n diners costs O(n x events).
   Kept as the reference oracle that monitor_reference.ml and
   lemmas_reference.ml are written against. *)

open Dsim

(* Phase transitions, optionally restricted to one instance and/or diner. *)
let transitions ?instance ?pid t =
  Trace.filter t (fun e ->
      match e.Trace.ev with
      | Trace.Transition tr ->
          (match instance with Some i -> String.equal i tr.instance | None -> true)
          && (match pid with Some p -> p = tr.pid | None -> true)
      | _ -> false)

(* Piecewise-constant phase history [(from, to_exclusive, phase)] covering
   [0, horizon); diners start Thinking. *)
let phase_timeline t ~instance ~pid ~horizon =
  let trs = transitions ~instance ~pid t in
  let rec go current since = function
    | [] -> if since >= horizon then [] else [ (since, horizon, current) ]
    | (e : Trace.entry) :: rest -> (
        match e.Trace.ev with
        | Trace.Transition tr ->
            let seg = if e.Trace.at > since then [ (since, e.Trace.at, current) ] else [] in
            seg @ go tr.to_ e.Trace.at rest
        | _ -> go current since rest)
  in
  go Types.Thinking 0 trs

(* Eating sessions as [(start, stop)] pairs; a session still open at the
   end of the run is closed at [horizon]. *)
let eating_intervals t ~instance ~pid ~horizon =
  phase_timeline t ~instance ~pid ~horizon
  |> List.filter_map (fun (a, b, ph) ->
         if Types.phase_equal ph Types.Eating then Some (a, b) else None)

(* The crash, suspicion and note queries as filters over the entry list,
   which the trace kept itself before it stored ticks and events in
   columns. *)

let crash_times t =
  List.fold_left
    (fun m (e : Trace.entry) ->
      match e.Trace.ev with
      | Trace.Crash { pid } when not (Types.Pidmap.mem pid m) -> Types.Pidmap.add pid e.Trace.at m
      | _ -> m)
    Types.Pidmap.empty (Trace.entries t)

let suspicion_flips t ~detector ~owner ~target =
  let mine d o g = String.equal d detector && o = owner && g = target in
  List.filter_map
    (fun (e : Trace.entry) ->
      match e.Trace.ev with
      | Trace.Suspect s when mine s.detector s.owner s.target -> Some (e.Trace.at, true)
      | Trace.Trust s when mine s.detector s.owner s.target -> Some (e.Trace.at, false)
      | _ -> None)
    (Trace.entries t)

let notes ?pid ?label t =
  List.filter
    (fun (e : Trace.entry) ->
      match e.Trace.ev with
      | Trace.Note n ->
          (match pid with Some p -> p = n.pid | None -> true)
          && (match label with Some l -> String.equal l n.label | None -> true)
      | _ -> false)
    (Trace.entries t)
