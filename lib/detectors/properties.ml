open Dsim

type pair_stat = {
  owner : Types.pid;
  target : Types.pid;
  flips : (Types.time * bool) list;  (** [(t, suspected?)] chronological. *)
  final_suspected : bool;
  false_suspicions : int;  (** Suspect events fired while the target was still live. *)
}

type verdict = {
  holds : bool;
  details : string list;
}

let pp_verdict fmt v =
  if v.holds then Format.fprintf fmt "OK"
  else
    Format.fprintf fmt "VIOLATED:@,%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
      v.details

let verdict details = { holds = details = []; details }

let crash_time trace pid = Types.Pidmap.find_opt pid (Trace.crash_times trace)

(* All ordered pairs (owner <> target) over pids [0..n-1].
   [initially_suspected] is the detector's attitude before any logged flip
   (the reduction's extracted detector starts suspecting; heartbeat ◇P
   starts trusting). *)
let pair_stats trace ~detector ~n ~initially_suspected =
  let crash_times = Trace.crash_times trace in
  let stats = ref [] in
  for owner = n - 1 downto 0 do
    for target = n - 1 downto 0 do
      if owner <> target then begin
        let flips = Trace.suspicion_flips trace ~detector ~owner ~target in
        let final_suspected =
          List.fold_left (fun _ (_, v) -> v) initially_suspected flips
        in
        let target_crash = Types.Pidmap.find_opt target crash_times in
        let false_suspicions =
          List.length
            (List.filter
               (fun (t, v) ->
                 v && match target_crash with None -> true | Some tc -> t < tc)
               flips)
        in
        stats := { owner; target; flips; final_suspected; false_suspicions } :: !stats
      end
    done
  done;
  !stats

let correct_pids trace ~n =
  let crashed = Trace.crash_times trace in
  List.filter (fun p -> not (Types.Pidmap.mem p crashed)) (List.init n Fun.id)

let strong_completeness trace ~detector ~n ~initially_suspected =
  let correct = correct_pids trace ~n in
  let crashed = Trace.crash_times trace in
  let stats = pair_stats trace ~detector ~n ~initially_suspected in
  let violations =
    List.filter_map
      (fun st ->
        if List.mem st.owner correct && Types.Pidmap.mem st.target crashed
           && not st.final_suspected
        then
          Some
            (Printf.sprintf "p%d does not permanently suspect crashed p%d" st.owner st.target)
        else None)
      stats
  in
  verdict violations

let eventual_strong_accuracy trace ~detector ~n ~initially_suspected =
  let correct = correct_pids trace ~n in
  let stats = pair_stats trace ~detector ~n ~initially_suspected in
  let violations =
    List.filter_map
      (fun st ->
        if List.mem st.owner correct && List.mem st.target correct && st.final_suspected
        then Some (Printf.sprintf "correct p%d still suspects correct p%d" st.owner st.target)
        else None)
      stats
  in
  verdict violations

let eventually_perfect trace ~detector ~n ~initially_suspected =
  let c = strong_completeness trace ~detector ~n ~initially_suspected in
  let a = eventual_strong_accuracy trace ~detector ~n ~initially_suspected in
  { holds = c.holds && a.holds; details = c.details @ a.details }

let trusting_accuracy trace ~detector ~n ~initially_suspected =
  let correct = correct_pids trace ~n in
  let stats = pair_stats trace ~detector ~n ~initially_suspected in
  let violations =
    List.concat_map
      (fun st ->
        if not (List.mem st.owner correct) then []
        else begin
          let target_crash = crash_time trace st.target in
          (* (b) no trust revocation of a live process *)
          let rec scan trusted_before acc = function
            | [] -> acc
            | (t, v) :: rest ->
                let acc =
                  if v && trusted_before
                     && (match target_crash with None -> true | Some tc -> t < tc)
                  then
                    Printf.sprintf "p%d revoked trust in live p%d at t=%d" st.owner st.target t
                    :: acc
                  else acc
                in
                scan (not v) acc rest
          in
          let revocations = scan (not initially_suspected) [] st.flips in
          (* (a) correct targets end trusted *)
          let untrusted =
            if List.mem st.target correct && st.final_suspected then
              [ Printf.sprintf "p%d never converged to trusting correct p%d" st.owner st.target ]
            else []
          in
          revocations @ untrusted
        end)
      stats
  in
  verdict violations

let perpetual_weak_accuracy trace ~detector ~n =
  let correct = correct_pids trace ~n in
  let never_suspected target =
    Trace.filter trace (fun e ->
        match e.Trace.ev with
        | Trace.Suspect s -> String.equal s.detector detector && s.target = target
        | _ -> false)
    = []
  in
  if List.exists never_suspected correct then verdict []
  else verdict [ "every correct process was suspected at least once" ]

let detection_time trace ~detector ~owner ~target ~initially_suspected =
  let flips = Trace.suspicion_flips trace ~detector ~owner ~target in
  let final = List.fold_left (fun _ (_, v) -> v) initially_suspected flips in
  if not final then None
  else
    let rec last_true_onset acc = function
      | [] -> acc
      | (t, true) :: rest -> last_true_onset (Some t) rest
      | (_, false) :: rest -> last_true_onset acc rest
    in
    match last_true_onset None flips with
    | Some t -> Some t
    | None -> Some 0 (* initially suspected, never flipped *)

let accuracy_convergence_time trace ~detector ~n =
  let crash_times = Trace.crash_times trace in
  let correct = correct_pids trace ~n in
  let latest = ref 0 in
  List.iter
    (fun owner ->
      List.iter
        (fun target ->
          if owner <> target then
            let flips = Trace.suspicion_flips trace ~detector ~owner ~target in
            List.iter
              (fun (t, v) ->
                let target_live_at t =
                  match Types.Pidmap.find_opt target crash_times with
                  | None -> true
                  | Some tc -> t < tc
                in
                (* Both the wrongful suspicion and its later revocation count
                   as "the detector had not yet converged". *)
                if target_live_at t && (v || t > !latest) then latest := max !latest t)
              flips)
        (List.init n Fun.id))
    correct;
  !latest

let total_false_suspicions trace ~detector ~n =
  pair_stats trace ~detector ~n ~initially_suspected:false
  |> List.fold_left (fun acc st -> acc + st.false_suspicions) 0
