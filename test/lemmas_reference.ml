(* Lemmas 5 and 12 as [Reduction.Lemmas.trace_reports] first counted
   them: a [List.filter] over a whole list for every window, so
   O(sessions x events). Kept as the oracle for the one-pass sweeps that
   replaced it; test_reduction.ml demands identical reports from both. *)

open Dsim

let eating_starts trace ~instance ~pid =
  Trace.transitions ~instance ~pid trace
  |> List.filter_map (fun (e : Trace.entry) ->
         match e.ev with
         | Trace.Transition { to_ = Types.Eating; _ } -> Some e.at
         | _ -> None)

let note_times trace ~pid ~label ~info =
  Trace.notes ~pid ~label trace
  |> List.filter_map (fun (e : Trace.entry) ->
         match e.ev with
         | Trace.Note n when String.equal n.info info -> Some e.at
         | _ -> None)

(* The [L5] and [L12] reports, in that order. *)
let l5_l12 ~engine ~(pair : Reduction.Pair.t) : Reduction.Lemmas.report list =
  let trace = Engine.trace engine in
  let horizon = Engine.now engine in
  let slack = max 1000 (horizon / 5) in
  let both_correct =
    Engine.is_live engine pair.Reduction.Pair.watcher
    && Engine.is_live engine pair.Reduction.Pair.subject
  in
  let watcher_correct = Engine.is_live engine pair.Reduction.Pair.watcher in
  let l5_violations = ref [] in
  if both_correct then
    for i = 0 to 1 do
      let sessions =
        Trace.eating_intervals trace ~instance:pair.Reduction.Pair.dx_instances.(i)
          ~pid:pair.Reduction.Pair.subject ~horizon
        |> List.filter (fun (_, b) -> b < horizon - slack)
      in
      let info_tag = Printf.sprintf "%s:%d" pair.Reduction.Pair.subject_tag i in
      let notes label = note_times trace ~pid:pair.Reduction.Pair.subject ~label ~info:info_tag in
      let pings = notes "red-ping" and acks = notes "red-ack" in
      List.iter
        (fun (a, b) ->
          let np = List.length (List.filter (fun t -> t >= a && t < b) pings) in
          let na = List.length (List.filter (fun t -> t > a && t <= b) acks) in
          if np <> 1 then
            l5_violations :=
              Printf.sprintf "s_%d session [%d,%d): %d pings" i a b np :: !l5_violations;
          if na <> 1 then
            l5_violations :=
              Printf.sprintf "s_%d session [%d,%d): %d acks" i a b na :: !l5_violations)
        sessions
    done;
  let l12_violations = ref [] in
  if watcher_correct then
    for i = 0 to 1 do
      let starts_i =
        eating_starts trace ~instance:pair.Reduction.Pair.dx_instances.(i)
          ~pid:pair.Reduction.Pair.watcher
      in
      let starts_other =
        eating_starts trace ~instance:pair.Reduction.Pair.dx_instances.(1 - i)
          ~pid:pair.Reduction.Pair.watcher
      in
      let rec scan = function
        | a :: (b :: _ as rest) ->
            let c = List.length (List.filter (fun t -> t > a && t < b) starts_other) in
            if c <> 1 then
              l12_violations :=
                Printf.sprintf "w_%d eats at %d and %d with %d w_%d eats between" i a b c (1 - i)
                :: !l12_violations;
            scan rest
        | _ -> ()
      in
      scan starts_i
    done;
  [
    {
      Reduction.Lemmas.lemma = "L5";
      violations = List.rev !l5_violations;
      info = "one ping/ack per session";
    };
    {
      Reduction.Lemmas.lemma = "L12";
      violations = List.rev !l12_violations;
      info = "witness alternation";
    };
  ]
