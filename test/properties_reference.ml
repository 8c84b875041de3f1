(* The ◇P property checkers of [Detectors.Properties] as they were first
   written: one [suspicion_flips] filter over the whole trace per ordered
   pair, so O(n^2 x events), and [perpetual_weak_accuracy] filtering the
   trace once per correct target. Kept as the oracle for the checkers
   that read one grouping of the detector's flips; test_detectors.ml
   demands identical verdicts, details in order, from both. The trace
   queries are trace_reference.ml's. *)

open Dsim

type verdict = Detectors.Properties.verdict = {
  holds : bool;
  details : string list;
}

type pair_stat = {
  owner : Types.pid;
  target : Types.pid;
  flips : (Types.time * bool) list;
  final_suspected : bool;
  false_suspicions : int;
}

let verdict details = { holds = details = []; details }

let crash_time trace pid = Types.Pidmap.find_opt pid (Trace_reference.crash_times trace)

(* All ordered pairs (owner <> target) over pids [0..n-1], owner-major. *)
let pair_stats trace ~detector ~n ~initially_suspected =
  let crash_times = Trace_reference.crash_times trace in
  let stats = ref [] in
  for owner = n - 1 downto 0 do
    for target = n - 1 downto 0 do
      if owner <> target then begin
        let flips = Trace_reference.suspicion_flips trace ~detector ~owner ~target in
        let final_suspected = List.fold_left (fun _ (_, v) -> v) initially_suspected flips in
        let target_crash = Types.Pidmap.find_opt target crash_times in
        let false_suspicions =
          List.length
            (List.filter
               (fun (t, v) -> v && match target_crash with None -> true | Some tc -> t < tc)
               flips)
        in
        stats := { owner; target; flips; final_suspected; false_suspicions } :: !stats
      end
    done
  done;
  !stats

let correct_pids trace ~n =
  let crashed = Trace_reference.crash_times trace in
  List.filter (fun p -> not (Types.Pidmap.mem p crashed)) (List.init n Fun.id)

let strong_completeness trace ~detector ~n ~initially_suspected =
  let correct = correct_pids trace ~n in
  let crashed = Trace_reference.crash_times trace in
  pair_stats trace ~detector ~n ~initially_suspected
  |> List.filter_map (fun st ->
         if List.mem st.owner correct && Types.Pidmap.mem st.target crashed
            && not st.final_suspected
         then
           Some (Printf.sprintf "p%d does not permanently suspect crashed p%d" st.owner st.target)
         else None)
  |> verdict

let eventual_strong_accuracy trace ~detector ~n ~initially_suspected =
  let correct = correct_pids trace ~n in
  pair_stats trace ~detector ~n ~initially_suspected
  |> List.filter_map (fun st ->
         if List.mem st.owner correct && List.mem st.target correct && st.final_suspected then
           Some (Printf.sprintf "correct p%d still suspects correct p%d" st.owner st.target)
         else None)
  |> verdict

let eventually_perfect trace ~detector ~n ~initially_suspected =
  let c = strong_completeness trace ~detector ~n ~initially_suspected in
  let a = eventual_strong_accuracy trace ~detector ~n ~initially_suspected in
  { holds = c.holds && a.holds; details = c.details @ a.details }

let trusting_accuracy trace ~detector ~n ~initially_suspected =
  let correct = correct_pids trace ~n in
  pair_stats trace ~detector ~n ~initially_suspected
  |> List.concat_map (fun st ->
         if not (List.mem st.owner correct) then []
         else begin
           let target_crash = crash_time trace st.target in
           let rec scan trusted_before acc = function
             | [] -> acc
             | (t, v) :: rest ->
                 let acc =
                   if v && trusted_before
                      && match target_crash with None -> true | Some tc -> t < tc
                   then
                     Printf.sprintf "p%d revoked trust in live p%d at t=%d" st.owner st.target t
                     :: acc
                   else acc
                 in
                 scan (not v) acc rest
           in
           let revocations = scan (not initially_suspected) [] st.flips in
           let untrusted =
             if List.mem st.target correct && st.final_suspected then
               [ Printf.sprintf "p%d never converged to trusting correct p%d" st.owner st.target ]
             else []
           in
           revocations @ untrusted
         end)
  |> verdict

let perpetual_weak_accuracy trace ~detector ~n =
  let never_suspected target =
    List.for_all
      (fun (e : Trace.entry) ->
        match e.Trace.ev with
        | Trace.Suspect s -> not (String.equal s.detector detector && s.target = target)
        | _ -> true)
      (Trace.entries trace)
  in
  if List.exists never_suspected (correct_pids trace ~n) then verdict []
  else verdict [ "every correct process was suspected at least once" ]

let accuracy_convergence_time trace ~detector ~n =
  let crash_times = Trace_reference.crash_times trace in
  let latest = ref 0 in
  List.iter
    (fun owner ->
      for target = 0 to n - 1 do
        if owner <> target then
          List.iter
            (fun (t, v) ->
              let live =
                match Types.Pidmap.find_opt target crash_times with
                | None -> true
                | Some tc -> t < tc
              in
              if live && (v || t > !latest) then latest := max !latest t)
            (Trace_reference.suspicion_flips trace ~detector ~owner ~target)
      done)
    (correct_pids trace ~n);
  !latest

let total_false_suspicions trace ~detector ~n =
  pair_stats trace ~detector ~n ~initially_suspected:false
  |> List.fold_left (fun acc st -> acc + st.false_suspicions) 0
