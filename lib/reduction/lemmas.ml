open Dsim

type report = {
  lemma : string;
  violations : string list;
  info : string;
}

let ok r = r.violations = []

let pp_report fmt r =
  Format.fprintf fmt "%-8s %s %s" r.lemma (if ok r then "OK " else "FAIL") r.info;
  List.iter (fun v -> Format.fprintf fmt "@,  - %s" v) r.violations

(* Violation accumulator capped to keep traces of long runs small. *)
module Acc = struct
  type t = { mutable items : string list; mutable count : int }

  let create () = { items = []; count = 0 }

  (* Counts one violation and tells whether its message is kept, so that
     a broken run formats only the messages it reports. *)
  let count t =
    t.count <- t.count + 1;
    t.count <= 10

  let keep t msg = t.items <- t.items @ [ msg ]

  let violations t =
    if t.count > 10 then t.items @ [ Printf.sprintf "... (%d total)" t.count ] else t.items
end

type online = {
  engine : Engine.t;
  pair : Pair.t;
  l2 : Acc.t;
  l3 : Acc.t;
  l4 : Acc.t;
  l9 : Acc.t;
  mutable l8_last_violation : int;
  mutable l8_violations : int;
}

let eating (h : Dining.Spec.handle) =
  match h.Dining.Spec.phase with Types.Eating -> true | _ -> false

let install_online ~engine ~pair =
  let o =
    {
      engine;
      pair;
      l2 = Acc.create ();
      l3 = Acc.create ();
      l4 = Acc.create ();
      l9 = Acc.create ();
      l8_last_violation = 0;
      l8_violations = 0;
    }
  in
  let subject = pair.Pair.subject and watcher = pair.Pair.watcher in
  let threads = pair.Pair.subject_threads in
  let s0 = pair.Pair.s_handles.(0) and s1 = pair.Pair.s_handles.(1) in
  let w0 = pair.Pair.w_handles.(0) and w1 = pair.Pair.w_handles.(1) in
  (* Lemma 3's channels, counted by the engine: ping_i on its way to the
     witness, ack_i on its way back. *)
  let pings =
    Array.init 2 (fun i ->
        Engine.in_flight_counter engine ~tag:pair.Pair.witness_tag ~f:(function
          | Messages.Ping j -> j = i
          | _ -> false))
  in
  let acks =
    Array.init 2 (fun i ->
        Engine.in_flight_counter engine ~tag:pair.Pair.subject_tag ~f:(function
          | Messages.Ack j -> j = i
          | _ -> false))
  in
  (* Lemmas 2, 3 and 4 on subject thread [i], whose diner is [s]. The
     phases and flags are read as fields; the clock only for a message. *)
  let check_subject i (s : Dining.Spec.handle) =
    match s.Dining.Spec.phase with
    | Types.Eating -> ()
    | phase ->
        let ping = threads.Subject.ping.(i) in
        (* Lemma 2 *)
        if (not ping) && Acc.count o.l2 then
          Acc.keep o.l2
            (Printf.sprintf "t=%d: s_%d not eating but ping_%d=false" (Engine.now engine) i i);
        (* Lemma 4 *)
        (match phase with
        | Types.Hungry when threads.Subject.trigger <> i && Acc.count o.l4 ->
            Acc.keep o.l4
              (Printf.sprintf "t=%d: s_%d hungry but trigger<>%d" (Engine.now engine) i i)
        | _ -> ());
        (* Lemma 3: no ping_i/ack_i in transit when (not eating) /\ ping_i *)
        if ping && Engine.is_live engine watcher then begin
          let pings = pings.(i) () and acks = acks.(i) () in
          if pings + acks > 0 && Acc.count o.l3 then
            Acc.keep o.l3
              (Printf.sprintf "t=%d: %d ping(s), %d ack(s) in transit on idle channel %d"
                 (Engine.now engine) pings acks i)
        end
  in
  Engine.on_tick engine (fun () ->
      if Engine.is_live engine subject then begin
        check_subject 0 s0;
        check_subject 1 s1;
        (* Lemma 8 suffix invariant *)
        if not (eating s0 || eating s1) then begin
          o.l8_last_violation <- Engine.now engine;
          o.l8_violations <- o.l8_violations + 1
        end
      end;
      (* Lemma 9 *)
      match (w0.Dining.Spec.phase, w1.Dining.Spec.phase) with
      | Types.Thinking, _ | _, Types.Thinking -> ()
      | _ ->
          if Engine.is_live engine watcher && Acc.count o.l9 then
            Acc.keep o.l9 (Printf.sprintf "t=%d: no witness thinking" (Engine.now engine)));
  o

let online_reports o =
  let now = Engine.now o.engine in
  let l8 =
    let subject_crashed = not (Engine.is_live o.engine o.pair.Pair.subject) in
    let converged = o.l8_last_violation < now - (now / 4) in
    {
      lemma = "L8";
      violations =
        (if subject_crashed || converged then []
         else
           [
             Printf.sprintf "suffix invariant still violated at t=%d (horizon %d)"
               o.l8_last_violation now;
           ]);
      info =
        Printf.sprintf "last-violation=%d total=%d%s" o.l8_last_violation o.l8_violations
          (if subject_crashed then " (subject crashed: n/a)" else "");
    }
  in
  [
    { lemma = "L2"; violations = Acc.violations o.l2; info = "state invariant" };
    { lemma = "L3"; violations = Acc.violations o.l3; info = "quiescent channels" };
    { lemma = "L4"; violations = Acc.violations o.l4; info = "state invariant" };
    l8;
    { lemma = "L9"; violations = Acc.violations o.l9; info = "some witness thinking" };
  ]

(* ------------------------------------------------------------------ *)
(* Post-hoc schedule lemmas *)

(* The subject's red-ping and red-ack times in each instance, in trace
   (hence time) order: slot [2 * i] holds instance [i]'s pings and slot
   [2 * i + 1] its acks. One pass counts them and a second fills the
   arrays. *)
let subject_notes trace (pair : Pair.t) =
  let tags = pair.Pair.subject_threads.Subject.note_info in
  let slot = function
    | Trace.Note n when n.pid = pair.Pair.subject ->
        let kind = match n.label with "red-ping" -> 0 | "red-ack" -> 1 | _ -> -1 in
        if kind < 0 then -1
        else if String.equal n.info tags.(0) then kind
        else if String.equal n.info tags.(1) then 2 + kind
        else -1
    | _ -> -1
  in
  let counts = Array.make 4 0 in
  Trace.iter trace (fun _ ev ->
      let k = slot ev in
      if k >= 0 then counts.(k) <- counts.(k) + 1);
  let times = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 4 0;
  Trace.iter trace (fun at ev ->
      let k = slot ev in
      if k >= 0 then begin
        times.(k).(counts.(k)) <- at;
        counts.(k) <- counts.(k) + 1
      end);
  times

(* One pass over a sorted array of times, counting those inside a series
   of windows: [before c x] and [through c x] skip the times < x (resp.
   <= x) and return how many have been skipped so far, so a window's
   count is the difference of two reads at its ends. Reads must not move
   back in time, which holds for windows taken in time order that do not
   overlap (Lemma 5's sessions) or only touch (Lemma 12's gaps between
   eats); a sweep is then O(times + windows) instead of a filter per
   window. *)
type sweep = { times : int array; mutable passed : int }

let sweep times = { times; passed = 0 }

let before c x =
  while c.passed < Array.length c.times && c.times.(c.passed) < x do
    c.passed <- c.passed + 1
  done;
  c.passed

(* Times are ints, so [t <= x] is [t < x + 1]. *)
let through c x = before c (x + 1)

let trace_reports_on ~indexes:ix ~engine ~pair =
  let trace = Engine.trace engine in
  let horizon = Engine.now engine in
  let slack = max 1000 (horizon / 5) in
  let both_correct =
    Engine.is_live engine pair.Pair.watcher && Engine.is_live engine pair.Pair.subject
  in
  let watcher_correct = Engine.is_live engine pair.Pair.watcher in
  (* Lemma 5: one ping and one ack per completed subject eating session. *)
  let l5_violations = ref [] in
  if both_correct then begin
    let notes = subject_notes trace pair in
    for i = 0 to 1 do
      let pings = sweep notes.(2 * i) and acks = sweep notes.((2 * i) + 1) in
      Dining.Monitor.Index.iter_segments ix.(i) ~pid:pair.Pair.subject ~horizon (fun a b ph ->
          if Types.phase_equal ph Types.Eating && b < horizon - slack then begin
            (* pings in [a, b), acks in (a, b] *)
            let np0 = before pings a in
            let np = before pings b - np0 in
            let na0 = through acks a in
            let na = through acks b - na0 in
            if np <> 1 then
              l5_violations :=
                Printf.sprintf "s_%d session [%d,%d): %d pings" i a b np :: !l5_violations;
            if na <> 1 then
              l5_violations :=
                Printf.sprintf "s_%d session [%d,%d): %d acks" i a b na :: !l5_violations
          end)
    done
  end;
  (* Lemmas 7 and 11: threads eat repeatedly. *)
  let counts pid = List.map (fun i -> Dining.Monitor.Index.eat_count ix.(i) ~pid) [ 0; 1 ] in
  let s_counts = counts pair.Pair.subject and w_counts = counts pair.Pair.watcher in
  let show counts = String.concat "/" (List.map string_of_int counts) in
  let l7 =
    {
      lemma = "L7";
      violations =
        (if both_correct && List.exists (fun c -> c < 2) s_counts then
           [ Printf.sprintf "subjects ate only %s times" (show s_counts) ]
         else []);
      info = Printf.sprintf "subject eats: %s" (show s_counts);
    }
  in
  let l11 =
    {
      lemma = "L11";
      violations =
        (if watcher_correct && List.exists (fun c -> c < 2) w_counts then
           [ Printf.sprintf "witnesses ate only %s times" (show w_counts) ]
         else []);
      info = Printf.sprintf "witness eats: %s" (show w_counts);
    }
  in
  (* Lemma 12: between consecutive eats of w_i, w_{1-i} eats exactly once. *)
  let l12_violations = ref [] in
  if watcher_correct then
    for i = 0 to 1 do
      let starts = Dining.Monitor.Index.eating_starts ix.(i) ~pid:pair.Pair.watcher in
      let others = sweep (Dining.Monitor.Index.eating_starts ix.(1 - i) ~pid:pair.Pair.watcher) in
      for k = 1 to Array.length starts - 1 do
        let a = starts.(k - 1) and b = starts.(k) in
        (* w_{1-i} eats in (a, b) *)
        let c0 = through others a in
        let c = before others b - c0 in
        if c <> 1 then
          l12_violations :=
            Printf.sprintf "w_%d eats at %d and %d with %d w_%d eats between" i a b c (1 - i)
            :: !l12_violations
      done
    done;
  (* Lemma 1 (wait-freedom of the subjects) and Lemma 6 (finite eating),
     judged only when both processes are correct. *)
  let l1_violations = ref [] in
  let l6_violations = ref [] in
  if both_correct then
    for i = 0 to 1 do
      Dining.Monitor.Index.iter_segments ix.(i) ~pid:pair.Pair.subject ~horizon (fun a b ph ->
          if Types.phase_equal ph Types.Hungry && b >= horizon && a < horizon - slack then
            l1_violations := Printf.sprintf "s_%d hungry since t=%d unserved" i a :: !l1_violations;
          if Types.phase_equal ph Types.Eating && b >= horizon && a < horizon - slack then
            l6_violations := Printf.sprintf "s_%d eating since t=%d never exits" i a :: !l6_violations)
    done;
  [
    { lemma = "L1"; violations = List.rev !l1_violations; info = "hungry subjects eat" };
    { lemma = "L5"; violations = List.rev !l5_violations; info = "one ping/ack per session" };
    { lemma = "L6"; violations = List.rev !l6_violations; info = "finite subject eating" };
    l7;
    l11;
    { lemma = "L12"; violations = List.rev !l12_violations; info = "witness alternation" };
  ]

let trace_reports ~engine ~pair =
  let indexes =
    Array.map
      (fun instance -> Dining.Monitor.Index.build (Engine.trace engine) ~instance)
      pair.Pair.dx_instances
  in
  trace_reports_on ~indexes ~engine ~pair
