(* Obs.Span as it was before it became a renderer over the phase index: a
   collector that folds the trace stream into per-(instance, diner)
   spans, keeping each diner's open span in per-instance arrays indexed
   by pid. Each Transition closes the diner's current span and opens the
   next; spans still open at the end are cut at the horizon. Kept as the
   oracle for Obs.Span.spans; test_monitor.ml and test_obs.ml demand
   identical span lists from both. *)

open Dsim

type lane = {
  instance : string;
  mutable phases : Types.phase array;
  mutable since : Types.time array; (* [unseen]: no transition of that diner yet *)
}

let unseen = min_int

let reserve lane pid =
  let n = Array.length lane.since in
  if pid >= n then begin
    let cap = max (pid + 1) (max 8 (2 * n)) in
    let phases = Array.make cap Types.Thinking and since = Array.make cap unseen in
    Array.blit lane.phases 0 phases 0 n;
    Array.blit lane.since 0 since 0 n;
    lane.phases <- phases;
    lane.since <- since
  end

let compare_span (a : Obs.Span.span) (b : Obs.Span.span) =
  let c = String.compare a.Obs.Span.instance b.Obs.Span.instance in
  if c <> 0 then c
  else
    let c = Int.compare a.Obs.Span.pid b.Obs.Span.pid in
    if c <> 0 then c
    else
      let c = Int.compare a.Obs.Span.start b.Obs.Span.start in
      if c <> 0 then c else Int.compare a.Obs.Span.stop b.Obs.Span.stop

let spans trace ~horizon =
  let lanes = ref [] and closed = ref [] in
  let lane_of instance =
    match List.find_opt (fun l -> String.equal l.instance instance) !lanes with
    | Some l -> l
    | None ->
        let l = { instance; phases = [||]; since = [||] } in
        lanes := l :: !lanes;
        l
  in
  Trace.iter trace (fun at ev ->
      match ev with
      | Trace.Transition { instance; pid; from_; to_ } ->
          let lane = lane_of instance in
          reserve lane pid;
          (* A diner first seen mid-run has held [from_] since tick 0. *)
          let seen = lane.since.(pid) <> unseen in
          let phase = if seen then lane.phases.(pid) else from_ in
          let start = if seen then lane.since.(pid) else 0 in
          let stop = at in
          if stop > start then
            closed := { Obs.Span.instance; pid; phase; start; stop; closed = true } :: !closed;
          lane.phases.(pid) <- to_;
          lane.since.(pid) <- stop
      | _ -> ());
  let acc = ref (List.rev !closed) in
  List.iter
    (fun lane ->
      Array.iteri
        (fun pid start ->
          if start <> unseen && horizon > start then
            acc :=
              {
                Obs.Span.instance = lane.instance;
                pid;
                phase = lane.phases.(pid);
                start;
                stop = horizon;
                closed = false;
              }
              :: !acc)
        lane.since)
    !lanes;
  List.sort compare_span !acc
