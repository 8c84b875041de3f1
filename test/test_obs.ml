(* Unit tests for the observability layer (lib/obs): JSON codec, trace
   sinks, metrics registry, engine instrumentation, run reports. *)

open Dsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let j =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 1.5);
          ("str", Str "quote\" slash\\ newline\n tab\t ctrl\001 unicode\xc3\xa9");
          ("arr", Arr [ Int 1; Str "two"; Obj [ ("k", Bool false) ] ]);
          ("empty_arr", Arr []);
          ("empty_obj", Obj []);
        ])
  in
  let s = Obs.Json.to_string j in
  check "compact parses back" true (Obs.Json.of_string s = j);
  let p = Obs.Json.to_string_pretty j in
  check "pretty parses back" true (Obs.Json.of_string p = j)

let test_json_numbers () =
  check "int stays int" true (Obs.Json.of_string "17" = Obs.Json.Int 17);
  check "negative int" true (Obs.Json.of_string "-3" = Obs.Json.Int (-3));
  check "decimal is float" true (Obs.Json.of_string "1.25" = Obs.Json.Float 1.25);
  check "exponent is float" true (Obs.Json.of_string "2e3" = Obs.Json.Float 2000.0)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Failure _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{\"a\":1,}" ]

let test_json_accessors () =
  let j = Obs.Json.of_string {|{"a":1,"b":"x","c":[true],"d":{"e":2}}|} in
  check_int "int" 1 Obs.Json.(int (get j "a"));
  check_str "str" "x" Obs.Json.(str (get j "b"));
  check "arr" true Obs.Json.(arr (get j "c") = [ Bool true ]);
  check "find missing" true (Obs.Json.find j "zzz" = None);
  check "find non-obj" true (Obs.Json.find (Obs.Json.Int 3) "k" = None)

(* ------------------------------------------------------------------ *)
(* Sinks *)

let seeded_dining_run ?(seed = 41L) ?(retain_trace = true) ?(horizon = 5000) ?(sink = None) () =
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let n = Graphs.Conflict_graph.n graph in
  let engine =
    Engine.create ~seed ~retain_trace ~n ~adversary:(Adversary.partial_sync ~gst:400 ()) ()
  in
  (match sink with Some s -> Obs.Sink.attach (Engine.trace engine) s | None -> ());
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance:"dx" ~graph ~suspects:(suspects pid) ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.schedule_crash engine 4 ~at:2000;
  Engine.run engine ~until:horizon;
  engine

let test_entry_json_roundtrip () =
  let entries =
    [
      { Trace.at = 1;
        ev = Trace.Transition { instance = "i,\"x"; pid = 0; from_ = Types.Thinking; to_ = Types.Hungry } };
      { Trace.at = 2; ev = Trace.Suspect { detector = "d"; owner = 0; target = 1 } };
      { Trace.at = 3; ev = Trace.Trust { detector = "d"; owner = 1; target = 0 } };
      { Trace.at = 4; ev = Trace.Crash { pid = 2 } };
      { Trace.at = 5; ev = Trace.Note { pid = 0; label = "l"; info = "line1\nline2\"q" } };
    ]
  in
  List.iter
    (fun e ->
      let j = Obs.Sink.entry_to_json e in
      let e' = Obs.Sink.entry_of_json (Obs.Json.of_string (Obs.Json.to_string j)) in
      check "entry survives json round-trip" true (e = e'))
    entries;
  match
    Obs.Sink.entry_of_json
      (Obs.Json.of_string
         {|{"at":3,"ev":"transition","instance":"dx","pid":-1,"from":"thinking","to":"hungry"}|})
  with
  | _ -> Alcotest.fail "negative pid accepted"
  | exception Failure _ -> ()

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.jsonl_file path in
      let engine = seeded_dining_run ~sink:(Some sink) () in
      sink.Obs.Sink.close ();
      let mem = Trace.entries (Engine.trace engine) in
      let streamed = Trace.entries (Obs.Sink.read_jsonl path) in
      check "trace is non-trivial" true (List.length mem > 100);
      check_int "same number of entries" (List.length mem) (List.length streamed);
      check "identical entries" true (mem = streamed))

let test_streaming_without_retention () =
  (* The memory-free mode of very long runs: retain_trace:false keeps the
     in-memory buffer empty while the sink still sees every event — and
     on a seeded 100k-tick run the streamed file equals, entry for entry,
     the in-memory trace of an identical retained run. *)
  let horizon = 100_000 in
  let path = Filename.temp_file "obs_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.jsonl_file path in
      let streaming = seeded_dining_run ~retain_trace:false ~horizon ~sink:(Some sink) () in
      sink.Obs.Sink.close ();
      check_int "in-memory buffer stays empty" 0 (Trace.length (Engine.trace streaming));
      let retained = seeded_dining_run ~horizon () in
      let mem = Trace.entries (Engine.trace retained) in
      check "trace spans the full horizon" true
        (List.exists (fun e -> e.Trace.at > horizon - 1000) mem);
      check "streamed file = retained trace of the identical run" true
        (Trace.entries (Obs.Sink.read_jsonl path) = mem))

let test_tee_and_memory_sinks () =
  let mem_sink, tr = Obs.Sink.memory () in
  let tee = Obs.Sink.tee [ Obs.Sink.null; mem_sink ] in
  let e = { Trace.at = 7; ev = Trace.Crash { pid = 0 } } in
  tee.Obs.Sink.emit e;
  tee.Obs.Sink.close ();
  check "tee forwarded to memory sink" true (Trace.entries tr = [ e ])

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "c" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  check_int "counter" 5 (Obs.Metrics.counter_value c);
  check_int "counter is get-or-create" 5
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "c"));
  let g = Obs.Metrics.gauge m "g" in
  Obs.Metrics.set g 9;
  check_int "gauge" 9 (Obs.Metrics.gauge_value g);
  (try
     ignore (Obs.Metrics.gauge m "c");
     Alcotest.fail "kind clash accepted"
   with Invalid_argument _ -> ());
  let q = Obs.Metrics.quantile m "q" in
  List.iter (Obs.Quantile.add q) [ 0; 10; 11; 1000 ];
  check "digest is get-or-create" true (Obs.Metrics.quantile m "q" == q);
  let j = Obs.Metrics.to_json m in
  (match j with
  | Obs.Json.Obj kinds ->
      Alcotest.(check (list string)) "three kinds" [ "counters"; "gauges"; "quantiles" ]
        (List.map fst kinds)
  | _ -> Alcotest.fail "snapshot is not an object");
  let digest = Obs.Json.(get (get j "quantiles") "q") in
  check_int "count" 4 Obs.Json.(int (get digest "count"));
  check_int "sum" 1021 Obs.Json.(int (get digest "sum"));
  check_int "min" 0 Obs.Json.(int (get digest "min"));
  check_int "max" 1000 Obs.Json.(int (get digest "max"))

let test_metrics_determinism () =
  let snapshot () =
    let m = Obs.Metrics.create () in
    let graph = Graphs.Conflict_graph.ring ~n:5 in
    let engine =
      Engine.create ~seed:23L ~n:5 ~adversary:(Adversary.partial_sync ~gst:400 ()) ()
    in
    let inst = Obs.Instrument.install ~metrics:m engine in
    let suspects = Core.Scenario.evp_suspects engine ~n:5 ~windows:[] in
    for pid = 0 to 4 do
      let ctx = Engine.ctx engine pid in
      let comp, handle, _ =
        Dining.Wf_ewx.component ctx ~instance:"dx" ~graph ~suspects:(suspects pid) ()
      in
      Engine.register engine pid comp;
      Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
    done;
    Engine.schedule_crash engine 4 ~at:1500;
    Engine.run engine ~until:4000;
    Obs.Instrument.finalize inst;
    Obs.Json.to_string (Obs.Metrics.to_json m)
  in
  let a = snapshot () and b = snapshot () in
  check_str "same seed, byte-identical metrics" a b;
  let j = Obs.Json.of_string a in
  let counters = Obs.Json.get j "counters" in
  check_int "ticks counted" 4000 Obs.Json.(int (get counters "engine.ticks"));
  check_int "crash counted" 1 Obs.Json.(int (get counters "engine.crashes"));
  check "meals counted" true Obs.Json.(int (get counters "dining.dx.meals") > 0);
  let gauges = Obs.Json.get j "gauges" in
  check_int "live procs final" 4 Obs.Json.(int (get gauges "engine.live_procs"));
  check "sent total recorded" true Obs.Json.(int (get gauges "engine.sent_total") > 0);
  let digest = Obs.Json.(get (get j "quantiles") "dining.dx.hunger_latency") in
  check "hunger sessions observed" true Obs.Json.(int (get digest "count") > 0)

let test_metrics_merge_edge_cases () =
  (* Empty digests on both sides: min/max must stay null after the
     merge, not collapse to 0. *)
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  ignore (Obs.Metrics.quantile a "h");
  ignore (Obs.Metrics.quantile b "h");
  Obs.Metrics.merge ~into:a b;
  let digest_of m = Obs.Json.(get (get (Obs.Metrics.to_json m) "quantiles") "h") in
  let ja = digest_of a in
  check "empty+empty min stays null" true (Obs.Json.get ja "min" = Obs.Json.Null);
  check "empty+empty max stays null" true (Obs.Json.get ja "max" = Obs.Json.Null);
  check_int "empty+empty count" 0 Obs.Json.(int (get ja "count"));
  (* An empty source merged into a populated destination must not disturb
     the destination's extrema. *)
  Obs.Quantile.add (Obs.Metrics.quantile a "h") 42;
  Obs.Metrics.merge ~into:a b;
  let ja = digest_of a in
  check_int "min survives empty-source merge" 42 Obs.Json.(int (get ja "min"));
  check_int "max survives empty-source merge" 42 Obs.Json.(int (get ja "max"));
  (* ... and a populated source merged into an empty destination adopts
     the source's extrema rather than min-ing against a phantom 0. *)
  let c = Obs.Metrics.create () in
  ignore (Obs.Metrics.quantile c "h");
  Obs.Metrics.merge ~into:c a;
  let jc = digest_of c in
  check_int "empty-destination adopts min" 42 Obs.Json.(int (get jc "min"));
  check_int "empty-destination adopts max" 42 Obs.Json.(int (get jc "max"));
  (* Gauges: the source value wins, so merge order matters (which is why
     campaign drivers merge in run-index order). *)
  let g1 = Obs.Metrics.create () and g2 = Obs.Metrics.create () in
  Obs.Metrics.set (Obs.Metrics.gauge g1 "g") 1;
  Obs.Metrics.set (Obs.Metrics.gauge g2 "g") 2;
  Obs.Metrics.merge ~into:g1 g2;
  check_int "gauge takes the source value" 2
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge g1 "g"));
  let g3 = Obs.Metrics.create () in
  Obs.Metrics.set (Obs.Metrics.gauge g3 "g") 1;
  Obs.Metrics.merge ~into:g2 g3;
  check_int "reverse order gives the other answer" 1
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge g2 "g"));
  (* Kind clashes across registries are rejected like same-registry ones. *)
  let k1 = Obs.Metrics.create () and k2 = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter k1 "x");
  ignore (Obs.Metrics.gauge k2 "x");
  try
    Obs.Metrics.merge ~into:k1 k2;
    Alcotest.fail "cross-registry kind clash accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Exact quantiles *)

(* Deterministic xorshift64* stream for sample generation — the test must
   not depend on OCaml's Random (whose stream is version-dependent). *)
let sample_stream seed =
  let state = ref seed in
  fun () ->
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    Int64.to_int (Int64.rem (Int64.logand x 0x7FFFFFFFL) 500L)

let test_quantile_exact_vs_naive () =
  let next = sample_stream 0x9E3779B97F4A7C15L in
  (* > 20x the 128-sample pending buffer: forces many compactions. *)
  let n = 3000 in
  let samples = Array.init n (fun _ -> next ()) in
  let q = Obs.Quantile.create () in
  Array.iter (Obs.Quantile.add q) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let naive p =
    let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
    sorted.(rank - 1)
  in
  List.iter
    (fun p ->
      match Obs.Quantile.quantile q p with
      | Some v -> check_int (Printf.sprintf "quantile %.3f is the order statistic" p) (naive p) v
      | None -> Alcotest.fail "non-empty digest returned None")
    [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  check_int "count" n (Obs.Quantile.count q);
  check_int "sum" (Array.fold_left ( + ) 0 samples) (Obs.Quantile.sum q);
  check "min" true (Obs.Quantile.min_value q = Some sorted.(0));
  check "max" true (Obs.Quantile.max_value q = Some sorted.(n - 1));
  (* Runs are the exact multiset: counts sum to n, values strictly
     increasing. *)
  let runs = Obs.Quantile.runs q in
  let naive_runs =
    Array.fold_right
      (fun v acc ->
        match acc with (u, c) :: rest when u = v -> (v, c + 1) :: rest | _ -> (v, 1) :: acc)
      sorted []
  in
  check "runs are the run-length encoding of the sorted samples" true (runs = naive_runs);
  check_int "runs cover every sample" n (List.fold_left (fun acc (_, c) -> acc + c) 0 runs);
  check "runs strictly increasing" true
    (fst (List.fold_left (fun (ok, prev) (v, _) -> (ok && v > prev, v)) (true, min_int) runs));
  (try
     ignore (Obs.Quantile.quantile q 1.5);
     Alcotest.fail "q > 1 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Obs.Quantile.quantile q (-0.1));
     Alcotest.fail "q < 0 accepted"
   with Invalid_argument _ -> ());
  let e = Obs.Quantile.create () in
  check "empty digest has no quantiles" true (Obs.Quantile.quantile e 0.5 = None);
  check "empty digest min/max are None" true
    (Obs.Quantile.min_value e = None && Obs.Quantile.max_value e = None);
  let je = Obs.Quantile.to_json e in
  check "empty json p99 null" true (Obs.Json.get je "p99" = Obs.Json.Null)

let test_quantile_merge_is_multiset_union () =
  let a = Obs.Quantile.create ()
  and b = Obs.Quantile.create ()
  and all = Obs.Quantile.create () in
  for i = 0 to 999 do
    let v = i * 7919 mod 101 in
    Obs.Quantile.add (if i mod 2 = 0 then a else b) v;
    Obs.Quantile.add all v
  done;
  Obs.Quantile.merge ~into:a b;
  check "merged runs equal the union digest's runs" true
    (Obs.Quantile.runs a = Obs.Quantile.runs all);
  check_int "merged count" 1000 (Obs.Quantile.count a);
  check_int "merged sum" (Obs.Quantile.sum all) (Obs.Quantile.sum a);
  check_int "source sample content unchanged" 500 (Obs.Quantile.count b)

(* ------------------------------------------------------------------ *)
(* Spans *)

let transition at instance pid from_ to_ =
  { Trace.at; ev = Trace.Transition { instance; pid; from_; to_ } }

(* A trace of hand-written entries. *)
let trace_of entries =
  let tr = Trace.create () in
  List.iter (fun (e : Trace.entry) -> Trace.append tr ~at:e.Trace.at e.Trace.ev) entries;
  tr

let synthetic_stream =
  [
    transition 5 "dx" 0 Types.Thinking Types.Hungry;
    (* entered and left Hungry within one tick: a zero-length span *)
    transition 5 "dx" 0 Types.Hungry Types.Eating;
    transition 20 "dx" 0 Types.Eating Types.Thinking;
    (* diner 1 first seen mid-run: assumed Hungry since tick 0 *)
    transition 10 "dx" 1 Types.Hungry Types.Eating;
  ]

let test_span_fold () =
  let tr = trace_of synthetic_stream in
  let span pid phase start stop closed = { Obs.Span.instance = "dx"; pid; phase; start; stop; closed } in
  let expect =
    [
      span 0 Types.Thinking 0 5 true;
      span 0 Types.Eating 5 20 true;
      span 0 Types.Thinking 20 30 false;
      span 1 Types.Hungry 0 10 true;
      span 1 Types.Eating 10 30 false;
    ]
  in
  check "spans (open ones cut at the horizon)" true (Obs.Span.spans tr ~horizon:30 = expect);
  check "the streaming fold agrees" true (Span_reference.spans tr ~horizon:30 = expect);
  (* A span ended by a transition past the horizon stays closed, and a
     stay that starts at or after the horizon has no open span. *)
  let early =
    [
      span 0 Types.Thinking 0 5 true;
      span 0 Types.Eating 5 20 true;
      span 1 Types.Hungry 0 10 true;
      span 1 Types.Eating 10 15 false;
    ]
  in
  check "spans at an earlier horizon" true (Obs.Span.spans tr ~horizon:15 = early);
  check "the streaming fold agrees at it" true (Span_reference.spans tr ~horizon:15 = early)

let test_chrome_export_deterministic () =
  let render () =
    let engine = seeded_dining_run ~horizon:3000 () in
    Obs.Json.to_string_pretty (Obs.Span.chrome_of_trace (Engine.trace engine))
  in
  let a = render () and b = render () in
  check_str "same seed, byte-identical trace-event document" a b;
  let j = Obs.Json.of_string a in
  check_str "schema tag" Obs.Span.schema_version Obs.Json.(str (get j "schema"));
  let events = Obs.Json.(arr (get j "traceEvents")) in
  check "document is non-trivial" true (List.length events > 50);
  List.iter
    (fun e ->
      let ph = Obs.Json.(str (get e "ph")) in
      check "only metadata/complete/instant events" true (List.mem ph [ "M"; "X"; "i" ]))
    events;
  (* One complete event per span of the streaming fold of the same trace. *)
  let engine = seeded_dining_run ~horizon:3000 () in
  let n_spans = List.length (Span_reference.spans (Engine.trace engine) ~horizon:3001) in
  let n_x =
    List.length (List.filter (fun e -> Obs.Json.(str (get e "ph")) = "X") events)
  in
  check_int "one X event per span" n_spans n_x

(* Digests of the Chrome documents that [dinersim trace] writes, taken
   when Span still folded the trace itself: rendering over the phase
   index must not move a byte. Each corpus artifact is replayed as
   [dinersim trace] replays it, cut at its configured horizon. *)
let chrome_digest ?horizon trace =
  Digest.to_hex
    (Digest.string (Obs.Json.to_string_pretty (Obs.Span.chrome_of_trace ?horizon trace)))

let test_chrome_documents_pinned () =
  List.iter
    (fun (file, want) ->
      let r = Check.Repro.load ~path:(Filename.concat "corpus" file) in
      let _, trace =
        Check.Runner.run_traced
          ~drive:(Adversary.replayer ~len:r.Check.Repro.len ~overrides:r.Check.Repro.overrides)
          ~registry:Broken_dining.registry r.Check.Repro.config
      in
      check_str file want (chrome_digest ~horizon:r.Check.Repro.config.Check.Config.horizon trace))
    [
      ("broken-wf-dropfork.json", "942dc498873012c6b4c189e81b090cc5");
      ("family-async.json", "c08490f2427dfda535d0e8be5b8be126");
      ("family-bursty.json", "72c57dd8629f64dfb1b8bec13d9ea262");
      ("family-partial.json", "91f3fe22b16127df5e9c39e4161e0f1f");
      ("family-sync.json", "c0bcb6c50066950de41a4c5c0f8386b7");
    ];
  check_str "seeded run, default horizon" "0d8a0e9988464ee64dd29c4d94dff78b"
    (chrome_digest (Engine.trace (seeded_dining_run ~horizon:3000 ())));
  check_str "seeded run cut before its end" "74fb421a401be113607d65adea156cd1"
    (chrome_digest ~horizon:4000 (Engine.trace (seeded_dining_run ())))

(* ------------------------------------------------------------------ *)
(* Schedule-coverage signatures *)

let signature_of_run seed =
  let engine = seeded_dining_run ~seed () in
  let c = Obs.Coverage.create () in
  Obs.Coverage.attach c (Engine.trace engine);
  Obs.Coverage.snapshot c

let test_coverage_signatures () =
  List.iter
    (fun w ->
      match Obs.Coverage.empty ~width:w () with
      | _ -> Alcotest.failf "width %d accepted" w
      | exception Invalid_argument _ -> ())
    [ 0; -8; 7; 12 ];
  let e = Obs.Coverage.empty () in
  check_int "default width" Obs.Coverage.default_width (Obs.Coverage.width e);
  check_int "empty signature has no edges" 0 (Obs.Coverage.edges e);
  let a = signature_of_run 41L in
  let a' = signature_of_run 41L in
  let b = signature_of_run 42L in
  check "same seed, equal signature" true (Obs.Coverage.equal a a');
  check_str "same seed, same hex" (Obs.Coverage.to_hex a) (Obs.Coverage.to_hex a');
  check_str "same seed, same digest" (Obs.Coverage.digest a) (Obs.Coverage.digest a');
  check "signature is non-trivial" true (Obs.Coverage.edges a > 0);
  check "different seed, different signature" false (Obs.Coverage.equal a b);
  check "hex round-trips" true (Obs.Coverage.equal a (Obs.Coverage.of_hex (Obs.Coverage.to_hex a)));
  List.iter
    (fun s ->
      match Obs.Coverage.of_hex s with
      | _ -> Alcotest.failf "of_hex accepted %S" s
      | exception Invalid_argument _ -> ())
    [ ""; "abc"; "zz" ];
  let u = Obs.Coverage.union a b in
  check "union is commutative" true (Obs.Coverage.equal u (Obs.Coverage.union b a));
  check "union covers both sides" true
    (Obs.Coverage.new_edges ~seen:u a = 0 && Obs.Coverage.new_edges ~seen:u b = 0);
  check_int "a adds nothing over itself" 0 (Obs.Coverage.new_edges ~seen:a a);
  check "the other seed contributes fresh edges" true (Obs.Coverage.new_edges ~seen:a b > 0);
  check_int "union popcount = base + marginal"
    (Obs.Coverage.edges a + Obs.Coverage.new_edges ~seen:a b)
    (Obs.Coverage.edges u);
  (try
     ignore (Obs.Coverage.union a (Obs.Coverage.empty ~width:64 ()));
     Alcotest.fail "width mismatch accepted"
   with Invalid_argument _ -> ());
  let j = Obs.Coverage.to_json a in
  check_int "json width" (Obs.Coverage.width a) Obs.Json.(int (get j "width"));
  check_int "json edges" (Obs.Coverage.edges a) Obs.Json.(int (get j "edges"));
  check_str "json digest" (Obs.Coverage.digest a) Obs.Json.(str (get j "digest"));
  check_str "json bitmap" (Obs.Coverage.to_hex a) Obs.Json.(str (get j "bitmap"))

(* ------------------------------------------------------------------ *)
(* Observer allocation *)

(* The dining metric names of one snapshot kind. *)
let dining_names m kind =
  match Obs.Json.get (Obs.Metrics.to_json m) kind with
  | Obs.Json.Obj fields ->
      List.filter (fun n -> String.starts_with ~prefix:"dining." n) (List.map fst fields)
  | _ -> Alcotest.fail "snapshot kind is not an object"

(* Every kind of event, at one tick, with bracketed names as the
   reduction's pairs give them: two instances of one family, a detector
   and a note label. Four transitions per diner close one hunger span. *)
let events =
  let tr instance pid from_ to_ = Trace.Transition { instance; pid; from_; to_ } in
  [|
    tr "dx0[0>1]" 0 Types.Thinking Types.Hungry;
    tr "dx0[0>1]" 0 Types.Hungry Types.Eating;
    Trace.Suspect { detector = "hb[0>1]"; owner = 0; target = 1 };
    tr "dx0[1>0]" 1 Types.Thinking Types.Hungry;
    tr "dx0[0>1]" 0 Types.Eating Types.Exiting;
    Trace.Trust { detector = "hb[0>1]"; owner = 0; target = 1 };
    tr "dx0[0>1]" 0 Types.Exiting Types.Thinking;
    Trace.Crash { pid = 2 };
    tr "dx0[1>0]" 1 Types.Hungry Types.Eating;
    Trace.Note { pid = 1; label = "w[0>1]"; info = "x" };
    tr "dx0[1>0]" 1 Types.Eating Types.Exiting;
    tr "dx0[1>0]" 1 Types.Exiting Types.Thinking;
  |]

let append_events tr n =
  for i = 0 to n - 1 do
    Trace.append tr ~at:7 events.(i mod Array.length events)
  done

let test_observers_allocation () =
  if
    Alloc_probe.words_of (fun () -> ignore (Sys.opaque_identity (Trace.create ~retain:false ())))
    >= 64.0
  then
    Alcotest.fail "a retain:false trace allocates a buffer";
  let bare = Trace.create ~retain:false () in
  Alcotest.(check (float 0.0)) "retain:false, no subscriber: 0 words per append" 0.0
    (Alloc_probe.steady_words (append_events bare));
  let plain = Trace.create ~retain:false () in
  Trace.subscribe plain ignore;
  let entry_words = Alloc_probe.steady_words (append_events plain) in
  let covered = Trace.create ~retain:false () in
  Trace.subscribe covered ignore;
  Obs.Coverage.attach (Obs.Coverage.create ()) covered;
  Alcotest.(check (float 0.0)) "a coverage collector adds no words per append" entry_words
    (Alloc_probe.steady_words (append_events covered));
  (* Instrument resolves each metric handle once: no metric name is built
     per event (one name would be a string of 3 words or more). The
     warm-up of 20k events (3,333 hunger samples) covers the growth of the
     exact digest's merge arrays, so the window measured is steady. *)
  let engine =
    Engine.create ~retain_trace:false ~n:3 ~adversary:(Adversary.synchronous ()) ()
  in
  Trace.subscribe (Engine.trace engine) ignore;
  let m = Obs.Metrics.create () in
  let inst = Obs.Instrument.install ~metrics:m engine in
  let extra =
    Alloc_probe.steady_words ~n:20_000 (append_events (Engine.trace engine)) -. entry_words
  in
  Obs.Instrument.finalize inst;
  if extra >= 1.0 then
    Alcotest.failf "Instrument's subscriber allocates %.2f words per event" extra;
  Alcotest.(check (list string)) "both instances feed their family's digest"
    [ "dining.dx0.hunger_latency" ] (dining_names m "quantiles");
  Alcotest.(check (list string)) "and its meals counter" [ "dining.dx0.meals" ]
    (dining_names m "counters");
  (* On a retained trace Instrument subscribes nothing, so an append
     builds no entry: it costs what an append to a bare retained trace
     does. *)
  let kept = Alloc_probe.steady_words (append_events (Trace.create ())) in
  let engine = Engine.create ~n:3 ~adversary:(Adversary.synchronous ()) () in
  let inst = Obs.Instrument.install ~metrics:(Obs.Metrics.create ()) engine in
  Alcotest.(check (float 0.0)) "Instrument adds no words to a retained append" kept
    (Alloc_probe.steady_words (append_events (Engine.trace engine)));
  Obs.Instrument.finalize inst;
  (* The exact digest behind Instrument's hunger latencies: 300 distinct
     values, so every compaction merges into runs it has already seen. *)
  let q = Obs.Quantile.create () in
  let per_add =
    Alloc_probe.steady_words ~n:100_000 (fun n ->
        for i = 0 to n - 1 do
          Obs.Quantile.add q (i * 7919 mod 300)
        done)
  in
  if per_add >= 1.0 then Alcotest.failf "Quantile.add allocates %.2f words per sample" per_add

(* ------------------------------------------------------------------ *)
(* Instrumented runs *)

let test_hunger_digest_tracks_run () =
  let m = Obs.Metrics.create () in
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let engine =
    Engine.create ~seed:23L ~n:5 ~adversary:(Adversary.partial_sync ~gst:400 ()) ()
  in
  let inst = Obs.Instrument.install ~metrics:m engine in
  let suspects = Core.Scenario.evp_suspects engine ~n:5 ~windows:[] in
  for pid = 0 to 4 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance:"dx" ~graph ~suspects:(suspects pid) ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.schedule_crash engine 4 ~at:1500;
  Engine.run engine ~until:4000;
  Obs.Instrument.finalize inst;
  let j = Obs.Metrics.to_json m in
  let exact = Obs.Json.(get (get j "quantiles") "dining.dx.hunger_latency") in
  check "hunger sessions observed" true Obs.Json.(int (get exact "count") > 0);
  (* Eating is entered only from Hungry, so every meal closes one hunger
     session: one sample per meal. *)
  check_int "one sample per meal"
    Obs.Json.(int (get (get j "counters") "dining.dx.meals"))
    Obs.Json.(int (get exact "count"));
  (* The exact p99 is a real sample: within the digest's [min, max]. *)
  let p99 = Obs.Json.(int (get exact "p99")) in
  check "p99 within extrema" true
    (p99 >= Obs.Json.(int (get exact "min")) && p99 <= Obs.Json.(int (get exact "max")))

(* Instrument folds a retained trace at [finalize] and subscribes to an
   unretained one, which it cannot read back: on the same seeded run the
   two give byte-identical metrics. Installed after the first 100 ticks,
   the fold must skip the events appended before [install], as the
   subscriber never saw them. *)
let test_fold_equals_subscribe () =
  let metrics ~retain_trace ~after =
    let m = Obs.Metrics.create () in
    let graph = Graphs.Conflict_graph.ring ~n:5 in
    let engine =
      Engine.create ~seed:23L ~retain_trace ~n:5 ~adversary:(Adversary.partial_sync ~gst:400 ()) ()
    in
    let suspects = Core.Scenario.evp_suspects engine ~n:5 ~windows:[] in
    for pid = 0 to 4 do
      let ctx = Engine.ctx engine pid in
      let comp, handle, _ =
        Dining.Wf_ewx.component ctx ~instance:"dx" ~graph ~suspects:(suspects pid) ()
      in
      Engine.register engine pid comp;
      Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
    done;
    Engine.schedule_crash engine 4 ~at:1500;
    Engine.run engine ~until:after;
    let inst = Obs.Instrument.install ~metrics:m engine in
    Engine.run engine ~until:4000;
    Obs.Instrument.finalize inst;
    Obs.Json.to_string (Obs.Metrics.to_json m)
  in
  let meals json = Obs.Json.(int (get (get (of_string json) "counters") "dining.dx.meals")) in
  let whole = metrics ~retain_trace:true ~after:0 in
  check_str "from the start: folded = subscribed" (metrics ~retain_trace:false ~after:0) whole;
  let late = metrics ~retain_trace:true ~after:100 in
  check_str "after 100 ticks: folded = subscribed" (metrics ~retain_trace:false ~after:100) late;
  check "the late install misses the first meals" true (meals late < meals whole)

(* Hunger latency comes from each diner's previous transition tick: a
   zero-length Hungry stay is a 0-tick sample, and a diner first seen at
   Hungry -> Eating has been hungry since tick 0. *)
let test_hunger_latency_from_transition_ticks () =
  let m = Obs.Metrics.create () in
  let engine =
    Engine.create ~retain_trace:false ~n:2 ~adversary:(Adversary.synchronous ()) ()
  in
  let inst = Obs.Instrument.install ~metrics:m engine in
  List.iter
    (fun (e : Trace.entry) -> Trace.append (Engine.trace engine) ~at:e.Trace.at e.Trace.ev)
    synthetic_stream;
  Obs.Instrument.finalize inst;
  let j = Obs.Metrics.to_json m in
  let exact = Obs.Json.(get (get j "quantiles") "dining.dx.hunger_latency") in
  check_int "one sample per Hungry -> Eating" 2 Obs.Json.(int (get exact "count"));
  check_int "the zero-length stay is a 0 sample" 0 Obs.Json.(int (get exact "min"));
  check_int "pid 1, first seen at Hungry -> Eating at 10, waited 10" 10
    Obs.Json.(int (get exact "max"));
  check_int "nothing else" 10 Obs.Json.(int (get exact "sum"))

(* The instances of a family share its metrics: [a[0]] and [a[1]] feed
   one [dining.a.hunger_latency] digest and one [dining.a.meals]
   counter, while each diner's latency runs from its own instance's last
   transition. *)
let test_family_shares_metrics () =
  let m = Obs.Metrics.create () in
  let engine = Engine.create ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let inst = Obs.Instrument.install ~metrics:m engine in
  List.iter
    (fun (e : Trace.entry) -> Trace.append (Engine.trace engine) ~at:e.Trace.at e.Trace.ev)
    [
      transition 5 "a[0]" 0 Types.Thinking Types.Hungry;
      transition 7 "a[1]" 0 Types.Thinking Types.Hungry;
      (* 9 - 5: pid 0's last transition in a[0], not the later one in a[1] *)
      transition 9 "a[0]" 0 Types.Hungry Types.Eating;
      (* 20 - 7: pid 0's last transition in a[1], not the later one in a[0] *)
      transition 20 "a[1]" 0 Types.Hungry Types.Eating;
      (* pid 1, first seen in a[1] at Hungry -> Eating: hungry since 0 *)
      transition 21 "a[1]" 1 Types.Hungry Types.Eating;
    ];
  Obs.Instrument.finalize inst;
  Alcotest.(check (list string)) "one digest" [ "dining.a.hunger_latency" ]
    (dining_names m "quantiles");
  Alcotest.(check (list string)) "one meals counter" [ "dining.a.meals" ]
    (dining_names m "counters");
  Alcotest.(check (list (pair int int))) "both instances' samples, each from its own instance"
    [ (4, 1); (13, 1); (21, 1) ]
    (Obs.Quantile.runs (Obs.Metrics.quantile m "dining.a.hunger_latency"));
  check_int "the meals of both instances" 3
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "dining.a.meals"))

(* ------------------------------------------------------------------ *)
(* Reports *)

let test_report_schema_roundtrip () =
  let path = Filename.temp_file "obs_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = Obs.Metrics.create () in
      Obs.Metrics.incr (Obs.Metrics.counter m "events");
      let j =
        Obs.Report.make ~cmd:"dining" ~seed:7L ~horizon:12000
          ~config:[ ("algo", Obs.Json.Str "wf") ]
          ~metrics:m
          ~checks:
            [
              Obs.Report.check "wait_freedom" true;
              Obs.Report.check ~detail:"2 violations" "exclusion" false;
            ]
          ~wall:(Obs.Json.Obj [ ("elapsed_s", Obs.Json.Float 0.5) ])
          ()
      in
      Obs.Json.write_file ~path j;
      let j' =
        match Obs.Report.read_any ~path with
        | `Run j -> j
        | `Campaign _ | `Mc _ -> Alcotest.fail "run report misdispatched"
      in
      check "write/read identity" true (j = j');
      check_str "schema tag" Obs.Report.schema_version Obs.Json.(str (get j' "schema"));
      check_str "cmd" "dining" Obs.Json.(str (get j' "cmd"));
      check_str "seed" "0x7" Obs.Json.(str (get j' "seed"));
      check "one failing check => not passed" false (Obs.Report.passed j');
      check "wall_clock stripped" true
        (Obs.Json.find (Obs.Report.strip_wall_clock j') "wall_clock" = None);
      check "metrics embedded" true
        Obs.Json.(int (get (get (get j' "metrics") "counters") "events") = 1))

(* The seed is written in full: a seed past 2^62 read back from a report
   and parsed as --seed parses it is the seed the run had. *)
let test_report_seed_roundtrip () =
  let seed = 0x4000000000000005L in
  let j = Obs.Report.make ~cmd:"dining" ~seed () in
  let recorded = Obs.Json.(str (get (of_string (to_string j)) "seed")) in
  check_str "recorded in hex" "0x4000000000000005" recorded;
  check "parses back to the run's seed" true (Core.Cmdline.parse_seed recorded = Ok seed);
  check "the summary prints it" true
    (String.starts_with ~prefix:"report: cmd=dining seed=0x4000000000000005 "
       (Format.asprintf "%a" Obs.Report.pp_summary j))

(* A failed check is the first line under the header, wherever the
   report lists it; the others keep their order. *)
let test_summary_failed_first () =
  let j =
    Obs.Report.make ~cmd:"extract" ~seed:7L ~horizon:100
      ~checks:
        [
          Obs.Report.check "a" true;
          Obs.Report.check ~detail:"L8" "b" false;
          Obs.Report.check "c" true;
        ]
      ()
  in
  check_str "failed first, then report order"
    (String.concat "\n"
       [
         "report: cmd=extract seed=0x7 horizon=100";
         "  b                                  FAIL — L8";
         "  a                                  ok";
         "  c                                  ok";
         "  all checks: FAIL";
         "";
       ])
    (Format.asprintf "%a" Obs.Report.pp_summary j)

let test_report_rejects_invalid () =
  let path = Filename.temp_file "obs_bad" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      List.iter
        (fun s ->
          write s;
          match Obs.Report.read_any ~path with
          | _ -> Alcotest.failf "accepted %S" s
          | exception Failure _ -> ())
        [
          "not json";
          "{}";
          {|{"schema":"other/9","cmd":"x","checks":[]}|};
          {|{"schema":"dinersim-report/1","checks":[]}|};
          {|{"schema":"dinersim-report/1","cmd":"x"}|};
          {|{"schema":"dinersim-report/1","cmd":"x","checks":[{"name":"y"}]}|};
        ])

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "sink",
        [
          Alcotest.test_case "entry json roundtrip" `Quick test_entry_json_roundtrip;
          Alcotest.test_case "jsonl roundtrip on seeded run" `Quick test_jsonl_sink_roundtrip;
          Alcotest.test_case "streaming without retention" `Quick
            test_streaming_without_retention;
          Alcotest.test_case "tee and memory" `Quick test_tee_and_memory_sinks;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "determinism on seeded run" `Quick test_metrics_determinism;
          Alcotest.test_case "merge edge cases" `Quick test_metrics_merge_edge_cases;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "exact vs naive across compactions" `Quick
            test_quantile_exact_vs_naive;
          Alcotest.test_case "merge is multiset union" `Quick
            test_quantile_merge_is_multiset_union;
        ] );
      ( "span",
        [
          Alcotest.test_case "fold of a synthetic stream" `Quick test_span_fold;
          Alcotest.test_case "chrome documents pinned" `Quick test_chrome_documents_pinned;
          Alcotest.test_case "chrome export deterministic" `Quick
            test_chrome_export_deterministic;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "signature semantics on seeded runs" `Quick test_coverage_signatures;
          Alcotest.test_case "observers allocate nothing per event" `Quick
            test_observers_allocation;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "folding a retained trace equals subscribing" `Quick
            test_fold_equals_subscribe;
          Alcotest.test_case "hunger latency from transition ticks" `Quick
            test_hunger_latency_from_transition_ticks;
          Alcotest.test_case "hunger digest tracks the run" `Quick test_hunger_digest_tracks_run;
          Alcotest.test_case "instances of a family share its metrics" `Quick
            test_family_shares_metrics;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema roundtrip" `Quick test_report_schema_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_report_rejects_invalid;
          Alcotest.test_case "seed keeps all 64 bits" `Quick test_report_seed_roundtrip;
          Alcotest.test_case "summary prints failed checks first" `Quick
            test_summary_failed_first;
        ] );
    ]
