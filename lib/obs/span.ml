(* Span layer: the interval view of a run, rendered from the phase
   index (Dining.Monitor.Index) of each dining instance in the trace —
   one span per contiguous stay of a diner in a phase. The index is the
   run's one phase history; this module only names its segments and
   renders them for the Chrome-trace export. *)

open Dsim

type span = {
  instance : string;
  pid : Types.pid;
  phase : Types.phase;
  start : Types.time;
  stop : Types.time; (* exclusive; the horizon for spans still open there *)
  closed : bool; (* false: cut at the horizon, not ended by a transition *)
}

(* The dining instances with a transition in [tr], sorted. *)
let instances tr =
  let acc = ref [] in
  Trace.iter tr (fun _ ev ->
      match ev with
      | Trace.Transition { instance; _ } ->
          if not (List.exists (String.equal instance) !acc) then acc := instance :: !acc
      | Trace.Suspect _ | Trace.Trust _ | Trace.Crash _ | Trace.Note _ -> ());
  List.sort String.compare !acc

(* Instances sorted, pids ascending, each diner's spans in time order:
   already the canonical (instance, pid, start, stop) order. *)
let spans tr ~horizon =
  List.concat_map
    (fun instance ->
      let acc = ref [] in
      Dining.Monitor.Index.iter_spans (Dining.Monitor.Index.build tr ~instance) ~horizon
        (fun pid start stop phase closed ->
          acc := { instance; pid; phase; start; stop; closed } :: !acc);
      List.rev !acc)
    (instances tr)

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
        Trace.iter tr (fun at _ -> if at > !last then last := at);
        !last + 1
  in
  let spans = spans tr ~horizon in
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
  let instant at = function
    | Trace.Suspect { detector; owner; target } ->
        Some
          (chrome_instant
             ~name:(Printf.sprintf "suspect p%d" target)
             ~cat:("detector," ^ detector) ~pid:owner at)
    | Trace.Trust { detector; owner; target } ->
        Some
          (chrome_instant
             ~name:(Printf.sprintf "trust p%d" target)
             ~cat:("detector," ^ detector) ~pid:owner at)
    | Trace.Crash { pid } -> Some (chrome_instant ~name:"crash" ~cat:"crash" ~pid at)
    | Trace.Note { pid; label; info } ->
        Some (chrome_instant ~name:label ~cat:"note" ~pid ~args:[ ("info", Json.Str info) ] at)
    | Trace.Transition _ -> None
  in
  let instant_events =
    let acc = ref [] in
    Trace.iter tr (fun at ev ->
        match instant at ev with Some j -> acc := j :: !acc | None -> ());
    List.rev !acc
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
