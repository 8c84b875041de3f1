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
(* Post-hoc schedule lemmas: one fold over the trace *)

(* What the fold keeps of one DX instance of a pair. Lemmas 5 and 12
   count events in windows between ticks, and the events of one tick may
   come in any order, so each count is kept in two parts: [_before], at
   ticks before the pair's current tick, and [_now], at it. A window that
   needs a count through a tick (acks in (a, b], the other witness's eats
   through a) is settled once the pair's events move past that tick, or
   at the end of the trace. *)
type dx = {
  (* The subject's stay: its phase, the tick it began, the pings before
     that tick and, once the pair moved past it, the acks through it. *)
  mutable phase : Types.phase;
  mutable since : Types.time;
  mutable pings_open : int;
  mutable acks_open : int;
  (* A completed eating session [session_a, session_b) waiting for the
     acks of tick [session_b] ([-1]: none), with its pings and the acks
     through its start. *)
  mutable session_a : Types.time;
  mutable session_b : Types.time;
  mutable session_pings : int;
  mutable session_acks : int;
  mutable pings_before : int;
  mutable pings_now : int;
  mutable acks_before : int;
  mutable acks_now : int;
  mutable subject_eats : int;
  (* The witness's eats, its last eating start ([-1]: none) and, once
     the pair moved past that start, the other witness's eats through it. *)
  mutable eats_before : int;
  mutable eats_now : int;
  mutable last_start : Types.time;
  mutable other_through : int;
  (* Violations, newest first. *)
  mutable l1 : string list;
  mutable l5 : string list;
  mutable l6 : string list;
  mutable l12 : string list;
}

type fold = {
  pair : Pair.t;
  horizon : Types.time;
  slack : Types.time;
  both_correct : bool;
  watcher_correct : bool;
  mutable tick : Types.time; (* of the pair's latest event *)
  dx : dx array;
}

let fresh_dx () =
  {
    phase = Types.Thinking;
    since = 0;
    pings_open = 0;
    acks_open = 0;
    session_a = 0;
    session_b = -1;
    session_pings = 0;
    session_acks = 0;
    pings_before = 0;
    pings_now = 0;
    acks_before = 0;
    acks_now = 0;
    subject_eats = 0;
    eats_before = 0;
    eats_now = 0;
    last_start = -1;
    other_through = 0;
    l1 = [];
    l5 = [];
    l6 = [];
    l12 = [];
  }

(* Lemma 5 on the waiting session of [s_i], [acks] being the acks through
   its end: one ping in [a, b) and one ack in (a, b]. *)
let settle_session i x ~acks =
  if x.session_b >= 0 then begin
    let a = x.session_a and b = x.session_b in
    if x.session_pings <> 1 then
      x.l5 <- Printf.sprintf "s_%d session [%d,%d): %d pings" i a b x.session_pings :: x.l5;
    let na = acks - x.session_acks in
    if na <> 1 then x.l5 <- Printf.sprintf "s_%d session [%d,%d): %d acks" i a b na :: x.l5;
    x.session_b <- -1
  end

(* The pair's events reach tick [at]: when that is past the current tick,
   settle what waited for the end of it, then count from [at]. *)
let advance f ~at =
  if at < f.tick then invalid_arg "Reduction.Lemmas: a pair's events go back in time";
  if at > f.tick then begin
    let t = f.tick and x0 = f.dx.(0) and x1 = f.dx.(1) in
    if x0.last_start = t then x0.other_through <- x1.eats_before + x1.eats_now;
    if x1.last_start = t then x1.other_through <- x0.eats_before + x0.eats_now;
    for i = 0 to 1 do
      let x = f.dx.(i) in
      let acks = x.acks_before + x.acks_now in
      settle_session i x ~acks;
      if x.since = t then x.acks_open <- acks;
      x.pings_before <- x.pings_before + x.pings_now;
      x.pings_now <- 0;
      x.acks_before <- acks;
      x.acks_now <- 0;
      x.eats_before <- x.eats_before + x.eats_now;
      x.eats_now <- 0
    done;
    f.tick <- at
  end

(* The subject's stay in DX_i ends at [b] as the segment [since, b):
   Lemma 5's session when it is a completed eating one, Lemma 1's or 6's
   violation when it reaches the horizon from before [horizon - slack].
   All three are judged only when both processes are correct. *)
let segment f i x ~b =
  let a = x.since and h = f.horizon - f.slack in
  if f.both_correct then
    match x.phase with
    | Types.Eating when b < h ->
        x.session_a <- a;
        x.session_b <- b;
        x.session_pings <- x.pings_before - x.pings_open;
        x.session_acks <- x.acks_open
    | Types.Eating when b >= f.horizon && a < h ->
        x.l6 <- Printf.sprintf "s_%d eating since t=%d never exits" i a :: x.l6
    | Types.Hungry when b >= f.horizon && a < h ->
        x.l1 <- Printf.sprintf "s_%d hungry since t=%d unserved" i a :: x.l1
    | _ -> ()

let subject_moves f i ~at to_ =
  let x = f.dx.(i) in
  if Dining.Monitor.is_segment ~since:x.since ~at then segment f i x ~b:at;
  x.phase <- to_;
  x.since <- at;
  x.pings_open <- x.pings_before;
  match to_ with Types.Eating -> x.subject_eats <- x.subject_eats + 1 | _ -> ()

(* Lemma 12 at an eating start of w_i at [at]: w_{1-i} ate once in
   (a, at), [a] being w_i's previous start. *)
let witness_eats f i ~at =
  let x = f.dx.(i) and other = f.dx.(1 - i) in
  if f.watcher_correct && x.last_start >= 0 then begin
    let a = x.last_start in
    let c = if at > a then other.eats_before - x.other_through else 0 in
    if c <> 1 then
      x.l12 <-
        Printf.sprintf "w_%d eats at %d and %d with %d w_%d eats between" i a at c (1 - i) :: x.l12
  end;
  x.last_start <- at;
  x.eats_now <- x.eats_now + 1

let finish f =
  for i = 0 to 1 do
    let x = f.dx.(i) in
    settle_session i x ~acks:(x.acks_before + x.acks_now);
    if Dining.Monitor.is_segment ~since:x.since ~at:f.horizon then segment f i x ~b:f.horizon
  done;
  let x0 = f.dx.(0) and x1 = f.dx.(1) in
  let both l = List.rev_append (l x0) (List.rev (l x1)) in
  let s0 = x0.subject_eats and s1 = x1.subject_eats in
  let w0 = x0.eats_before + x0.eats_now and w1 = x1.eats_before + x1.eats_now in
  let l7 =
    {
      lemma = "L7";
      violations =
        (if f.both_correct && (s0 < 2 || s1 < 2) then
           [ Printf.sprintf "subjects ate only %d/%d times" s0 s1 ]
         else []);
      info = Printf.sprintf "subject eats: %d/%d" s0 s1;
    }
  in
  let l11 =
    {
      lemma = "L11";
      violations =
        (if f.watcher_correct && (w0 < 2 || w1 < 2) then
           [ Printf.sprintf "witnesses ate only %d/%d times" w0 w1 ]
         else []);
      info = Printf.sprintf "witness eats: %d/%d" w0 w1;
    }
  in
  [
    { lemma = "L1"; violations = both (fun x -> x.l1); info = "hungry subjects eat" };
    { lemma = "L5"; violations = both (fun x -> x.l5); info = "one ping/ack per session" };
    { lemma = "L6"; violations = both (fun x -> x.l6); info = "finite subject eating" };
    l7;
    l11;
    { lemma = "L12"; violations = both (fun x -> x.l12); info = "witness alternation" };
  ]

let trace_reports_all ~engine ~pairs =
  let horizon = Engine.now engine in
  let slack = max 1000 (horizon / 5) in
  let folds =
    List.map
      (fun (pair : Pair.t) ->
        {
          pair;
          horizon;
          slack;
          both_correct = Engine.is_live engine pair.watcher && Engine.is_live engine pair.subject;
          watcher_correct = Engine.is_live engine pair.watcher;
          tick = 0;
          dx = [| fresh_dx (); fresh_dx () |];
        })
      pairs
  in
  (* Each pair instance by its name and by the info of its subject's notes. *)
  let instances = Hashtbl.create (4 * List.length pairs) in
  let notes = Hashtbl.create (4 * List.length pairs) in
  let add names key v =
    if Hashtbl.mem names key then invalid_arg "Reduction.Lemmas: two pairs share an instance";
    Hashtbl.add names key v
  in
  List.iter
    (fun f ->
      for i = 0 to 1 do
        add instances f.pair.Pair.dx_instances.(i) (f, i);
        add notes f.pair.Pair.subject_threads.Subject.note_info.(i) (f, i)
      done)
    folds;
  Trace.iter (Engine.trace engine) (fun at ev ->
      match ev with
      | Trace.Transition { instance; pid; to_; _ } -> (
          match Hashtbl.find instances instance with
          | f, i ->
              if pid = f.pair.Pair.subject then begin
                advance f ~at;
                subject_moves f i ~at to_
              end
              else if pid = f.pair.Pair.watcher then begin
                advance f ~at;
                match to_ with Types.Eating -> witness_eats f i ~at | _ -> ()
              end
          | exception Not_found -> ())
      | Trace.Note { pid; label; info } ->
          let ping = String.equal label "red-ping" in
          if ping || String.equal label "red-ack" then begin
            match Hashtbl.find notes info with
            | f, i when pid = f.pair.Pair.subject ->
                advance f ~at;
                let x = f.dx.(i) in
                if ping then x.pings_now <- x.pings_now + 1 else x.acks_now <- x.acks_now + 1
            | _ -> ()
            | exception Not_found -> ()
          end
      | _ -> ());
  List.map finish folds

let trace_reports ~engine ~pair = List.hd (trace_reports_all ~engine ~pairs:[ pair ])
