open Dsim

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

let never = max_int (* crash time of a process that never crashes *)

type flips = {
  n : int;
  rows : (Types.time * bool) list array; (* [owner * n + target], chronological *)
  crash : Types.time array; (* first crash per pid, [never] if none *)
  suspected : bool array; (* per target: the object of some [Suspect], by any owner *)
}

let flips trace ~detector ~n =
  let rows = Array.make (n * n) [] and crash = Array.make n never in
  let suspected = Array.make n false in
  let add owner target flip =
    if owner >= 0 && owner < n && target >= 0 && target < n then
      rows.((owner * n) + target) <- flip :: rows.((owner * n) + target)
  in
  Trace.iter trace (fun at -> function
    | Trace.Suspect s when String.equal s.detector detector ->
        if s.target >= 0 && s.target < n then suspected.(s.target) <- true;
        add s.owner s.target (at, true)
    | Trace.Trust s when String.equal s.detector detector -> add s.owner s.target (at, false)
    | Trace.Crash { pid } when pid >= 0 && pid < n && crash.(pid) = never -> crash.(pid) <- at
    | _ -> ());
  { n; rows = Array.map List.rev rows; crash; suspected }

let pair_flips g ~owner ~target =
  if owner >= 0 && owner < g.n && target >= 0 && target < g.n then g.rows.((owner * g.n) + target)
  else []

let correct g pid = g.crash.(pid) = never

(* Whether [target] was still live at [t]. *)
let live_at g target t = t < g.crash.(target)

(* [initially_suspected] is the detector's attitude before any logged
   flip (the reduction's extracted detector starts suspecting; heartbeat
   ◇P starts trusting). *)
let final_suspected ~initially_suspected flips =
  List.fold_left (fun _ (_, v) -> v) initially_suspected flips

(* [f owner target flips] over all ordered pairs of distinct pids,
   owner-major, both ascending; the non-empty results, concatenated. *)
let over_pairs g f =
  let acc = ref [] in
  for owner = g.n - 1 downto 0 do
    for target = g.n - 1 downto 0 do
      if owner <> target then
        match f owner target g.rows.((owner * g.n) + target) with
        | [] -> ()
        | details -> acc := details @ !acc
    done
  done;
  !acc

let strong_completeness trace ~detector ~n ~initially_suspected =
  let g = flips trace ~detector ~n in
  verdict
    (over_pairs g (fun owner target flips ->
         if correct g owner && (not (correct g target))
            && not (final_suspected ~initially_suspected flips)
         then [ Printf.sprintf "p%d does not permanently suspect crashed p%d" owner target ]
         else []))

let eventual_strong_accuracy trace ~detector ~n ~initially_suspected =
  let g = flips trace ~detector ~n in
  verdict
    (over_pairs g (fun owner target flips ->
         if correct g owner && correct g target && final_suspected ~initially_suspected flips
         then [ Printf.sprintf "correct p%d still suspects correct p%d" owner target ]
         else []))

let eventually_perfect trace ~detector ~n ~initially_suspected =
  let c = strong_completeness trace ~detector ~n ~initially_suspected in
  let a = eventual_strong_accuracy trace ~detector ~n ~initially_suspected in
  { holds = c.holds && a.holds; details = c.details @ a.details }

let trusting_accuracy trace ~detector ~n ~initially_suspected =
  let g = flips trace ~detector ~n in
  verdict
    (over_pairs g (fun owner target flips ->
         if not (correct g owner) then []
         else begin
           (* (b) no trust revocation of a live process, newest first *)
           let rec scan trusted_before acc = function
             | [] -> acc
             | (t, v) :: rest ->
                 let acc =
                   if v && trusted_before && live_at g target t then
                     Printf.sprintf "p%d revoked trust in live p%d at t=%d" owner target t :: acc
                   else acc
                 in
                 scan (not v) acc rest
           in
           let revocations = scan (not initially_suspected) [] flips in
           (* (a) correct targets end trusted *)
           if correct g target && final_suspected ~initially_suspected flips then
             revocations
             @ [ Printf.sprintf "p%d never converged to trusting correct p%d" owner target ]
           else revocations
         end))

let perpetual_weak_accuracy trace ~detector ~n =
  let g = flips trace ~detector ~n in
  if List.exists (fun p -> correct g p && not g.suspected.(p)) (List.init n Fun.id) then
    verdict []
  else verdict [ "every correct process was suspected at least once" ]

let detection_time trace ~detector ~owner ~target ~initially_suspected =
  let flips = Trace.suspicion_flips trace ~detector ~owner ~target in
  if not (final_suspected ~initially_suspected flips) then None
  else
    let rec last_true_onset acc = function
      | [] -> acc
      | (t, true) :: rest -> last_true_onset (Some t) rest
      | (_, false) :: rest -> last_true_onset acc rest
    in
    match last_true_onset None flips with
    | Some t -> Some t
    | None -> Some 0 (* initially suspected, never flipped *)

(* Both a wrongful suspicion and its later revocation count as "the
   detector had not yet converged". *)
let accuracy_convergence_time trace ~detector ~n =
  let g = flips trace ~detector ~n in
  let latest = ref 0 in
  for owner = 0 to n - 1 do
    if correct g owner then
      for target = 0 to n - 1 do
        if owner <> target then
          List.iter
            (fun (t, _) -> if live_at g target t && t > !latest then latest := t)
            g.rows.((owner * n) + target)
      done
  done;
  !latest

let total_false_suspicions trace ~detector ~n =
  let g = flips trace ~detector ~n in
  let total = ref 0 in
  for owner = 0 to n - 1 do
    for target = 0 to n - 1 do
      if owner <> target then
        List.iter
          (fun (t, v) -> if v && live_at g target t then incr total)
          g.rows.((owner * n) + target)
    done
  done;
  !total
