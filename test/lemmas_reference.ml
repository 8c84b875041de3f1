(* The post-hoc lemma checks of [Reduction.Lemmas.trace_reports] as they
   were first written: every lemma filters the whole trace through the
   per-diner queries of trace_reference.ml, and Lemmas 5 and 12 run a
   [List.filter] over a whole list for every window, so
   O(sessions x events). Kept as the oracle for the fold that reads the
   trace once for every pair; test_reduction.ml demands identical reports
   from both. *)

open Dsim

let eating_starts trace ~instance ~pid =
  Trace_reference.transitions ~instance ~pid trace
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

(* The [L1], [L5], [L6], [L7], [L11] and [L12] reports, in that order. *)
let trace_reports ~engine ~(pair : Reduction.Pair.t) : Reduction.Lemmas.report list =
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
        Trace_reference.eating_intervals trace ~instance:pair.Reduction.Pair.dx_instances.(i)
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
  let counts pid =
    List.map
      (fun i ->
        List.length (eating_starts trace ~instance:pair.Reduction.Pair.dx_instances.(i) ~pid))
      [ 0; 1 ]
  in
  let s_counts = counts pair.Reduction.Pair.subject in
  let w_counts = counts pair.Reduction.Pair.watcher in
  let show counts = String.concat "/" (List.map string_of_int counts) in
  let l7 =
    {
      Reduction.Lemmas.lemma = "L7";
      violations =
        (if both_correct && List.exists (fun c -> c < 2) s_counts then
           [ Printf.sprintf "subjects ate only %s times" (show s_counts) ]
         else []);
      info = Printf.sprintf "subject eats: %s" (show s_counts);
    }
  in
  let l11 =
    {
      Reduction.Lemmas.lemma = "L11";
      violations =
        (if watcher_correct && List.exists (fun c -> c < 2) w_counts then
           [ Printf.sprintf "witnesses ate only %s times" (show w_counts) ]
         else []);
      info = Printf.sprintf "witness eats: %s" (show w_counts);
    }
  in
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
  let l1_violations = ref [] in
  let l6_violations = ref [] in
  if both_correct then
    for i = 0 to 1 do
      List.iter
        (fun (a, b, ph) ->
          if Types.phase_equal ph Types.Hungry && b >= horizon && a < horizon - slack then
            l1_violations := Printf.sprintf "s_%d hungry since t=%d unserved" i a :: !l1_violations;
          if Types.phase_equal ph Types.Eating && b >= horizon && a < horizon - slack then
            l6_violations :=
              Printf.sprintf "s_%d eating since t=%d never exits" i a :: !l6_violations)
        (Trace_reference.phase_timeline trace ~instance:pair.Reduction.Pair.dx_instances.(i)
           ~pid:pair.Reduction.Pair.subject ~horizon)
    done;
  [
    { Reduction.Lemmas.lemma = "L1"; violations = List.rev !l1_violations; info = "hungry subjects eat" };
    { Reduction.Lemmas.lemma = "L5"; violations = List.rev !l5_violations; info = "one ping/ack per session" };
    { Reduction.Lemmas.lemma = "L6"; violations = List.rev !l6_violations; info = "finite subject eating" };
    l7;
    l11;
    { Reduction.Lemmas.lemma = "L12"; violations = List.rev !l12_violations; info = "witness alternation" };
  ]
