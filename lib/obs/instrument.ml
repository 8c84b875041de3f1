open Dsim

(* The metric handles a family of dining instances shares. Each is
   resolved at the first event that creates its name, exactly when a
   name-per-event lookup would have created it, so the registry ends up
   with the same names and values. *)
type family = {
  family : string;
  mutable meals : Metrics.counter option;
  mutable hunger : Quantile.t option;
}

(* One dining instance: its diners' own transition ticks, its family's
   handles. *)
type dining = {
  instance : string;
  fam : family;
  mutable last : Types.time array; (* per pid, the tick of its last transition; 0 before one *)
}

(* [counters.(i)] is [detector.<name><detector_suffixes.(i)>]. *)
type detector = { detector : string; counters : Metrics.counter option array }

let flips = 0
let suspects = 1
let trusts = 2
let detector_suffixes = [| ".flips"; ".suspects"; ".trusts" |]

type t = {
  metrics : Metrics.t;
  engine : Engine.t;
  t0 : float;
  clock0 : Types.time; (* the engine's clock at install *)
  from : int; (* the trace's length at install: the first event folded *)
  mutable ticks : int; (* set by finalize *)
  mutable elapsed : float option; (* set by finalize *)
  (* First-seen order; searched linearly by name. *)
  mutable dinings : dining list;
  mutable families : family list;
  mutable detectors : detector list;
  mutable crashes : Metrics.counter option;
}

let family_of name =
  match String.index_opt name '[' with Some i -> String.sub name 0 i | None -> name

let rec family_in st family = function
  | f :: rest -> if String.equal f.family family then f else family_in st family rest
  | [] ->
      let f = { family; meals = None; hunger = None } in
      st.families <- f :: st.families;
      f

(* Each lookup below builds its record or name once per instance or
   detector: the hot callers find the cached handle. *)
let rec dining_of st instance = function
  | d :: rest -> if String.equal d.instance instance then d else dining_of st instance rest
  | [] ->
      let d = { instance; fam = family_in st (family_of instance) st.families; last = [||] } in
      st.dinings <- d :: st.dinings;
      d

let rec detector_of st detector = function
  | d :: rest -> if String.equal d.detector detector then d else detector_of st detector rest
  | [] ->
      let d = { detector; counters = Array.make (Array.length detector_suffixes) None } in
      st.detectors <- d :: st.detectors;
      d

(* Resolve-once accessors: a name and its [Some] are built with the
   handle. *)
let detector_counter st d i =
  match d.counters.(i) with
  | Some c -> c
  | None ->
      let c =
        Metrics.counter st.metrics ("detector." ^ d.detector ^ detector_suffixes.(i))
      in
      d.counters.(i) <- Some c;
      c

let crashes st =
  match st.crashes with
  | Some c -> c
  | None ->
      let c = Metrics.counter st.metrics "engine.crashes" in
      st.crashes <- Some c;
      c

let meals st f =
  match f.meals with
  | Some c -> c
  | None ->
      let c = Metrics.counter st.metrics ("dining." ^ f.family ^ ".meals") in
      f.meals <- Some c;
      c

let hunger st f =
  match f.hunger with
  | Some q -> q
  | None ->
      let q = Metrics.quantile st.metrics ("dining." ^ f.family ^ ".hunger_latency") in
      f.hunger <- Some q;
      q

(* Makes room for [pid] in [d.last]; runs O(log pid) times per instance. *)
let reserve d pid =
  let n = Array.length d.last in
  if pid >= n then begin
    let last = Array.make (max (pid + 1) (max 8 (2 * n))) 0 in
    Array.blit d.last 0 last 0 n;
    d.last <- last
  end

(* Hunger latency: on Hungry -> Eating, the ticks since the diner's
   previous transition in its own instance (its entry into Hungry), from
   0 when the diner is first seen there; a 0-tick hunger session is
   still a sample. *)
let on_transition st d ~pid ~from_ ~to_ ~at =
  reserve d pid;
  if Types.phase_equal from_ Types.Hungry && Types.phase_equal to_ Types.Eating then
    Quantile.add (hunger st d.fam) (at - d.last.(pid));
  d.last.(pid) <- at

let on_event st at = function
  | Trace.Suspect { detector; _ } ->
      let d = detector_of st detector st.detectors in
      Metrics.incr (detector_counter st d flips);
      Metrics.incr (detector_counter st d suspects)
  | Trace.Trust { detector; _ } ->
      let d = detector_of st detector st.detectors in
      Metrics.incr (detector_counter st d flips);
      Metrics.incr (detector_counter st d trusts)
  | Trace.Crash _ -> Metrics.incr (crashes st)
  | Trace.Transition { instance; pid; from_; to_ } ->
      let d = dining_of st instance st.dinings in
      on_transition st d ~pid ~from_ ~to_ ~at;
      if Types.phase_equal to_ Types.Eating then Metrics.incr (meals st d.fam)
  | Trace.Note _ -> ()

(* On a retained trace [finalize] folds the events appended since
   [install]: the events a subscriber would see, in its order, so the
   same metrics, with no call per append. An unretained trace cannot be
   read back, so it gets the subscriber. *)
let install ~metrics engine =
  let trace = Engine.trace engine in
  let st =
    {
      metrics;
      engine;
      t0 = Unix.gettimeofday ();
      clock0 = Engine.now engine;
      from = Trace.length trace;
      ticks = 0;
      elapsed = None;
      dinings = [];
      families = [];
      detectors = [];
      crashes = None;
    }
  in
  if not (Trace.retained trace) then
    Trace.subscribe trace (fun e -> on_event st e.Trace.at e.Trace.ev);
  st

(* Messages sent, summed per tag family. *)
let sent_by_family engine =
  List.fold_left
    (fun acc (tag, n) ->
      let f = family_of tag in
      (f, n + Option.value ~default:0 (List.assoc_opt f acc)) :: List.remove_assoc f acc)
    [] (Engine.sent_by_tag engine)

let finalize st =
  match st.elapsed with
  | Some _ -> ()
  | None ->
      let trace = Engine.trace st.engine in
      if Trace.retained trace then Trace.iter ~from:st.from trace (on_event st);
      st.elapsed <- Some (Unix.gettimeofday () -. st.t0);
      st.ticks <- Engine.now st.engine - st.clock0;
      Metrics.incr ~by:st.ticks (Metrics.counter st.metrics "engine.ticks");
      Metrics.set (Metrics.gauge st.metrics "engine.live_procs") (Engine.live_count st.engine);
      Metrics.set (Metrics.gauge st.metrics "engine.clock") (Engine.now st.engine);
      Metrics.set (Metrics.gauge st.metrics "engine.sent_total") (Engine.sent_total st.engine);
      Metrics.set
        (Metrics.gauge st.metrics "engine.in_flight_final")
        (Engine.in_flight_total st.engine);
      List.iter
        (fun (f, n) -> Metrics.set (Metrics.gauge st.metrics ("engine.sent." ^ f)) n)
        (sent_by_family st.engine)

(* This module is the one sanctioned wall-clock reader (simlint D001):
   other layers that need elapsed-seconds measurements for a report's
   segregated wall_clock section route them through here. *)
let now_s () = Unix.gettimeofday ()

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let wall_json st =
  finalize st;
  let elapsed = Option.value ~default:0.0 st.elapsed in
  Json.Obj
    [
      ("elapsed_s", Json.Float elapsed);
      ("ticks", Json.Int st.ticks);
      ( "ticks_per_s",
        if elapsed > 0.0 then Json.Float (float_of_int st.ticks /. elapsed) else Json.Null );
    ]
