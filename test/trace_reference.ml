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
