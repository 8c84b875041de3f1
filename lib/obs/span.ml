(* Span layer: folds the flat trace stream into per-(instance, diner)
   phase spans — the interval view of the run that latency accounting,
   the Chrome-trace export and (eventually) open-loop workload reporting
   all share. One collector subscribes to a live trace (or replays a
   recorded one); each Transition event closes the diner's current span
   and opens the next. Spans still open when the caller asks for the
   final list are closed at the horizon and flagged [closed = false]. *)

open Dsim

type span = {
  instance : string;
  pid : Types.pid;
  phase : Types.phase;
  start : Types.time;
  stop : Types.time; (* exclusive; the horizon for spans still open there *)
  closed : bool; (* false: cut at the horizon, not ended by a transition *)
}

type close =
  instance:string ->
  pid:Types.pid ->
  phase:Types.phase ->
  start:Types.time ->
  stop:Types.time ->
  next:Types.phase ->
  unit

(* The open spans of one dining instance, indexed by pid. *)
type lane = {
  lane_instance : string;
  mutable phases : Types.phase array;
  mutable since : Types.time array; (* [unseen]: no transition of that diner yet *)
}

let unseen = min_int

type t = {
  (* Searched linearly by instance name (a run has a handful); only
     [spans] traverses them, and it sorts. *)
  mutable lanes : lane list;
  mutable closed : span list; (* reverse chronological close order *)
  retain : bool;
  mutable on_close : close list; (* registration order *)
}

let create ?(retain = true) () = { lanes = []; closed = []; retain; on_close = [] }

let on_close t f = t.on_close <- t.on_close @ [ f ]

let rec find_lane t instance = function
  | lane :: rest ->
      if String.equal lane.lane_instance instance then lane else find_lane t instance rest
  | [] ->
      (* simlint: allow D011 — one lane per instance, built at its first transition *)
      let lane = { lane_instance = instance; phases = [||]; since = [||] } in
      (* simlint: allow D011 — see above *)
      t.lanes <- lane :: t.lanes;
      lane

(* Makes room for [pid]; runs O(log pid) times per lane. *)
let reserve lane pid =
  let n = Array.length lane.since in
  if pid >= n then begin
    let cap = max (pid + 1) (max 8 (2 * n)) in
    (* simlint: allow D011 — amortised doubling of a lane's per-pid slots *)
    let phases = Array.make cap Types.Thinking in
    (* simlint: allow D011 — see above *)
    let since = Array.make cap unseen in
    Array.blit lane.phases 0 phases 0 n;
    Array.blit lane.since 0 since 0 n;
    lane.phases <- phases;
    lane.since <- since
  end

let rec fire fs ~instance ~pid ~phase ~start ~stop ~next =
  match fs with
  | [] -> ()
  | (f : close) :: rest ->
      f ~instance ~pid ~phase ~start ~stop ~next;
      fire rest ~instance ~pid ~phase ~start ~stop ~next

let observe t (e : Trace.entry) =
  match e.Trace.ev with
  | Trace.Transition { instance; pid; from_; to_ } ->
      if pid < 0 then invalid_arg "Span.observe: negative pid";
      let lane = find_lane t instance t.lanes in
      reserve lane pid;
      (* A diner first seen mid-run has held [from_] since tick 0 (diners
         start Thinking at 0). *)
      let seen = lane.since.(pid) <> unseen in
      let phase = if seen then lane.phases.(pid) else from_ in
      let start = if seen then lane.since.(pid) else 0 in
      let stop = e.Trace.at in
      fire t.on_close ~instance ~pid ~phase ~start ~stop ~next:to_;
      (* Zero-length spans (entered and left within one tick) fire the
         close callbacks — a 0-tick hunger session is still a latency
         sample — but are dropped from the retained interval list, like
         Trace.phase_timeline drops zero-length segments. *)
      if t.retain && stop > start then
        (* simlint: allow D011 — the retained span is the product; Instrument's collector keeps none *)
        t.closed <- { instance; pid; phase; start; stop; closed = true } :: t.closed;
      lane.phases.(pid) <- to_;
      lane.since.(pid) <- stop
  | Trace.Suspect _ | Trace.Trust _ | Trace.Crash _ | Trace.Note _ -> ()

let attach t tr =
  Trace.iter tr (observe t);
  Trace.subscribe tr (observe t)

let compare_span a b =
  let c = String.compare a.instance b.instance in
  if c <> 0 then c
  else
    let c = Int.compare a.pid b.pid in
    if c <> 0 then c
    else
      let c = Int.compare a.start b.start in
      if c <> 0 then c else Int.compare a.stop b.stop

let spans t ~horizon =
  if not t.retain then invalid_arg "Span.spans: collector created with ~retain:false";
  let acc = ref (List.rev t.closed) in
  List.iter
    (fun lane ->
      Array.iteri
        (fun pid start ->
          if start <> unseen && horizon > start then
            acc :=
              {
                instance = lane.lane_instance;
                pid;
                phase = lane.phases.(pid);
                start;
                stop = horizon;
                closed = false;
              }
              :: !acc)
        lane.since)
    t.lanes;
  List.sort compare_span !acc

(* ------------------------------------------------------------------ *)
(* Chrome trace-event ("trace_event/1") export, openable in Perfetto or
   chrome://tracing. Ticks are rendered as microseconds — the absolute
   scale is meaningless for a simulation, only the proportions matter.
   Every field is derived from the trace, so the document bytes are
   deterministic in the seed. *)

let schema_version = "trace_event/1"

let chrome_span_event ~tid sp =
  Json.Obj
    [
      ("name", Json.Str (Types.phase_to_string sp.phase));
      ("cat", Json.Str ("phase," ^ sp.instance));
      ("ph", Json.Str "X");
      ("ts", Json.Int sp.start);
      ("dur", Json.Int (sp.stop - sp.start));
      ("pid", Json.Int sp.pid);
      ("tid", Json.Int tid);
      ( "args",
        Json.Obj
          ([ ("instance", Json.Str sp.instance) ]
          @ if sp.closed then [] else [ ("open_at_horizon", Json.Bool true) ]) );
    ]

let chrome_instant ~name ~cat ~pid ?(args = []) at =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str "i");
       ("ts", Json.Int at);
       ("pid", Json.Int pid);
       ("s", Json.Str "p");
     ]
    @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let chrome_of_trace ?horizon tr =
  let horizon =
    match horizon with
    | Some h -> h
    | None ->
        (* Default: just past the last recorded event. *)
        let last = ref 0 in
        Trace.iter tr (fun e -> if e.Trace.at > !last then last := e.Trace.at);
        !last + 1
  in
  let collector = create () in
  Trace.iter tr (observe collector);
  let spans = spans collector ~horizon in
  (* One Chrome thread lane per dining instance, numbered in sorted
     instance order so the lane assignment is canonical. *)
  let instances =
    List.sort_uniq String.compare (List.map (fun sp -> sp.instance) spans)
  in
  let tid_of instance =
    let rec go i = function
      | [] -> 0
      | x :: rest -> if String.equal x instance then i else go (i + 1) rest
    in
    go 0 instances
  in
  let span_events = List.map (fun sp -> chrome_span_event ~tid:(tid_of sp.instance) sp) spans in
  let instant_events =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.ev with
        | Trace.Suspect { detector; owner; target } ->
            Some
              (chrome_instant
                 ~name:(Printf.sprintf "suspect p%d" target)
                 ~cat:("detector," ^ detector) ~pid:owner e.Trace.at)
        | Trace.Trust { detector; owner; target } ->
            Some
              (chrome_instant
                 ~name:(Printf.sprintf "trust p%d" target)
                 ~cat:("detector," ^ detector) ~pid:owner e.Trace.at)
        | Trace.Crash { pid } -> Some (chrome_instant ~name:"crash" ~cat:"crash" ~pid e.Trace.at)
        | Trace.Note { pid; label; info } ->
            Some
              (chrome_instant ~name:label ~cat:"note" ~pid
                 ~args:[ ("info", Json.Str info) ]
                 e.Trace.at)
        | Trace.Transition _ -> None)
      (Trace.entries tr)
  in
  let metadata =
    List.concat_map
      (fun pid ->
        [
          Json.Obj
            [
              ("name", Json.Str "process_name");
              ("ph", Json.Str "M");
              ("pid", Json.Int pid);
              ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "p%d" pid)) ]);
            ];
        ])
      (List.sort_uniq Int.compare (List.map (fun sp -> sp.pid) spans))
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (metadata @ span_events @ instant_events));
    ]
