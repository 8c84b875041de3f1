(* Allocation on the engine's hot path, counted exactly.

   These counts, with test_obs's per-event count for the trace observers,
   are the one authority on hot-path allocation. A count sees what no
   reading of the source can: a boxed [int64] or [float] result, or a call
   through a closure field such as [Component.guard]. Every number here is
   a deterministic count (minor + major - promoted words), so the tests
   compare it with a fixed bound, not with a timing. *)

open Dsim

(* ------------------------------------------------------------------ *)
(* Prng: every draw the engine makes per process-tick *)

let draws name f =
  let rng = Prng.create 0x5EEDL in
  let words =
    Alloc_probe.steady_words (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (f rng))
        done)
  in
  Alcotest.(check (float 0.0)) (name ^ ": 0 words per draw") 0.0 words

let test_prng_draws () =
  draws "int" (fun rng -> Prng.int rng ~bound:17);
  draws "int_in" (fun rng -> Prng.int_in rng ~lo:1 ~hi:8);
  draws "bool" Prng.bool;
  (* A fraction strictly inside (0, 1), so every call draws. *)
  draws "chance" (fun rng -> Prng.chance rng ~p:0.7);
  let rng = Prng.create 0x5EEDL in
  let a = Array.init 64 Fun.id in
  let words =
    Alloc_probe.steady_words ~n:200 (fun n ->
        for _ = 1 to n do
          Prng.shuffle_prefix rng a ~len:48
        done)
  in
  Alcotest.(check (float 0.0)) "shuffle_prefix: 0 words per swap" 0.0 (words /. 47.0)

(* The reference splitmix64.c (Vigna) seeded with 0. *)
let test_prng_known_answer () =
  let rng = Prng.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "splitmix64 stream" expected (Prng.next_int64 rng))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

let test_prng_copy_independent () =
  let src = Prng.create 42L in
  ignore (Prng.next_int64 src);
  let dup = Prng.copy src in
  let from_src = Prng.next_int64 src in
  ignore (Prng.next_int64 src);
  Alcotest.(check int64) "the copy starts where its source was" from_src (Prng.next_int64 dup);
  let fresh = Prng.create 42L in
  for _ = 1 to 3 do
    ignore (Prng.next_int64 fresh)
  done;
  Alcotest.(check int64) "the copy's draws left the source alone" (Prng.next_int64 fresh)
    (Prng.next_int64 src)

(* ------------------------------------------------------------------ *)
(* Engine steps *)

(* Steady-state words per process-tick: [Alloc_probe.steady_words] over
   runs of [ticks] and [2 * ticks] ticks, after [ticks] warm-up ticks have
   grown every scratch buffer. *)
let per_proc_tick ~ticks engine =
  Alloc_probe.steady_words ~n:ticks (fun k -> Engine.run engine ~until:(Engine.now engine + k))
  /. float_of_int (Engine.n engine)

let test_bare_engine () =
  (* [partial_sync]'s default GST is at tick 500 and the 400 ticks run
     here end before it, so every step offer draws. *)
  List.iter
    (fun (name, adversary) ->
      let engine = Engine.create ~seed:7L ~retain_trace:false ~n:100 ~adversary () in
      Alcotest.(check (float 0.0))
        (name ^ ": 0 words per process-tick")
        0.0
        (per_proc_tick ~ticks:100 engine))
    [
      ("async_uniform", Adversary.async_uniform ()); ("partial_sync", Adversary.partial_sync ());
    ]

(* The benchmark's ring instance with no observer: 100 hygienic diners
   with greedy clients under [async_uniform]. What remains is what a
   message needs, its payload: 0.208 words per process-tick, 1.040 when
   each message also built a 6-word packet, 1.803 when each phase change
   also built its trace event and each session boxed its timestamp. *)
let test_ring () =
  let n = 100 in
  let engine =
    Engine.create ~seed:4242L ~retain_trace:false ~n ~adversary:(Adversary.async_uniform ()) ()
  in
  let graph = Graphs.Conflict_graph.ring ~n in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"sc" ~graph () in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  let words = per_proc_tick ~ticks:2000 engine in
  if words >= 0.3 then Alcotest.failf "ring: %.3f words per process-tick (bound 0.3)" words

(* The extraction on 3 processes, as `dinersim extract -n 3 --lemmas`
   runs it, with its trace retained: 6 ordered pairs of 4 diners each,
   the heartbeat detectors and the online lemma monitors. A logged event
   costs only its share of a trace chunk's two columns: 1.599 words per
   process-tick, 2.647 when each retained event also built a 3-word
   entry, 7.020 when each message built a 6-word packet and the trace
   doubled and copied its buffer, 7.370 when each ping and ack also built
   its payload, 16.429 when each phase change also built its event and
   each ping or ack note formatted its text. The bound is the measure
   plus 3%. *)
let test_extraction () =
  let run = Core.Scenario.wf_extraction ~n:3 () in
  let words = per_proc_tick ~ticks:2000 run.Core.Scenario.engine in
  if words >= 1.65 then
    Alcotest.failf "extraction: %.3f words per process-tick (bound 1.65)" words

(* The post-hoc lemma reports of every pair of an n = 3 extraction read
   the trace in one fold with O(1) state per pair instance, so their
   words do not grow with the trace: at horizon 20,000 they take what
   they take at 10,000, give or take a report's digits. Building two
   phase indexes and two note arrays per pair, as the checks did
   before the fold, took 22k words more at 20,000. *)
let test_lemma_fold () =
  let run = Core.Scenario.wf_extraction ~n:3 () in
  let engine = run.Core.Scenario.engine in
  let pairs = List.map fst run.Core.Scenario.onlines in
  let words_at horizon =
    Engine.run engine ~until:horizon;
    Alloc_probe.words_of (fun () ->
        ignore (Sys.opaque_identity (Reduction.Lemmas.trace_reports_all ~engine ~pairs)))
  in
  let short = words_at 10_000 in
  let long = words_at 20_000 in
  if long -. short > 16.0 then
    Alcotest.failf "lemma fold: %.0f words at 20,000 against %.0f at 10,000 (bound +16)" long
      short

(* Steady-state words per message sent, over runs of [ticks] and
   [2 * ticks] ticks after [ticks] warm-up ticks, as [per_proc_tick]. *)
let per_message ~ticks engine =
  let run k = Engine.run engine ~until:(Engine.now engine + k) in
  run ticks;
  let measure k =
    let sent = Engine.sent_total engine in
    let words = Alloc_probe.words_of (fun () -> run k) in
    (words, Engine.sent_total engine - sent)
  in
  let once, sent_once = measure ticks in
  let twice, sent_twice = measure (2 * ticks) in
  (twice -. once) /. float_of_int (sent_twice - sent_once)

(* What one message costs the engine from send to receive: [send], the
   slot's [push], [turn_wheel], [deliver], the watched counter's
   [count_watched], the inbox's [push], [step_process] and [route_from].
   Each of 16 processes on a ring sends one constant message to its
   successor on every step, so nothing remains: a block built per message
   or per step costs at least 2 words (a 6-word packet per message before
   messages were stored flat). The bound's tenth of a word is for the
   amortised growth of slots and inboxes under random delays (0.003 under
   [async_uniform]). *)
let test_per_message () =
  let n = 16 in
  let is_unit = function Msg.Unit_msg -> true | _ -> false in
  List.iter
    (fun (name, adversary) ->
      let engine = Engine.create ~seed:11L ~retain_trace:false ~n ~adversary () in
      let received = ref 0 in
      for pid = 0 to n - 1 do
        let ctx = Engine.ctx engine pid in
        let succ = (pid + 1) mod n in
        let send =
          Component.action "send"
            ~guard:(fun () -> true)
            ~body:(fun () -> ctx.Context.send ~dst:succ ~tag:"ring" Msg.Unit_msg)
        in
        Engine.register engine pid
          (Component.make ~name:"ring" ~actions:[ send ]
             ~on_receive:(fun ~src:_ _ -> incr received)
             ())
      done;
      let pending = Engine.in_flight_counter engine ~tag:"ring" ~f:is_unit in
      let words = per_message ~ticks:2000 engine in
      if words > 0.1 then Alcotest.failf "%s: %.3f words per message (bound 0.1)" name words;
      Alcotest.(check int)
        (name ^ ": every message sent is received or pending")
        (Engine.sent_total engine) (!received + pending ());
      Alcotest.(check int)
        (name ^ ": the watched counter matches a scan")
        (Engine.in_flight_scan engine ~tag:"ring" ~f:is_unit)
        (pending ()))
    [
      ("synchronous", Adversary.synchronous ());
      ("async_uniform", Adversary.async_uniform ());
      ("dls", Adversary.dls ~delta:3 ~phi:2 ());
    ]

(* ------------------------------------------------------------------ *)
(* Trace events and detector queries *)

let cell_round cell =
  Dining.Spec.Cell.set cell Types.Hungry;
  Dining.Spec.Cell.set cell Types.Eating;
  Dining.Spec.Cell.set cell Types.Exiting;
  Dining.Spec.Cell.set cell Types.Thinking

(* A phase change costs the trace only its entry: nothing when no one
   keeps or observes it, the 3-word entry for a subscriber. *)
let test_cell_transitions () =
  List.iter
    (fun (name, observed, want) ->
      let engine =
        Engine.create ~retain_trace:false ~n:1 ~adversary:(Adversary.synchronous ()) ()
      in
      if observed then Trace.subscribe (Engine.trace engine) ignore;
      let cell = Dining.Spec.Cell.create (Engine.ctx engine 0) ~instance:"c" in
      let words =
        Alloc_probe.steady_words (fun n ->
            for _ = 1 to n do
              cell_round cell
            done)
      in
      Alcotest.(check (float 0.0)) (name ^ ": words per transition") want (words /. 4.0))
    [ ("no observer", false, 0.0); ("one subscriber", true, 3.0) ]

(* [Spec.Cell.set] refuses a write that is neither a no-op nor the next
   phase of the cycle: each of the 8 off-cycle writes raises, naming the
   instance, the pid and both phases, and leaves the phase and the trace
   as they were. *)
let test_cell_off_cycle () =
  let engine = Engine.create ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let cell = Dining.Spec.Cell.create (Engine.ctx engine 0) ~instance:"c" in
  let cycle = Types.[| Thinking; Hungry; Eating; Exiting |] in
  let refused = ref 0 in
  Array.iteri
    (fun i from_ ->
      Dining.Spec.Cell.set cell from_;
      let logged = Trace.length (Engine.trace engine) in
      Array.iteri
        (fun j to_ ->
          if j <> i && j <> (i + 1) mod 4 then begin
            incr refused;
            let hop = Types.phase_to_string from_ ^ " -> " ^ Types.phase_to_string to_ in
            (match Dining.Spec.Cell.set cell to_ with
            | () -> Alcotest.failf "%s accepted" hop
            | exception Invalid_argument msg ->
                Alcotest.(check string) (hop ^ ": message")
                  ("Dining c p0: phase " ^ hop ^ " is off the cycle") msg);
            Alcotest.(check string) (hop ^ ": phase unchanged")
              (Types.phase_to_string from_)
              (Types.phase_to_string (Dining.Spec.Cell.handle cell).Dining.Spec.phase);
            Alcotest.(check int) (hop ^ ": nothing logged") logged
              (Trace.length (Engine.trace engine))
          end)
        cycle)
    cycle;
  Alcotest.(check int) "every off-cycle write refused" 8 !refused

(* A retained append costs its share of a 32-slot chunk of two columns
   and of the spine above the chunks: 2.237 words, where a 3-word entry
   in a 64-entry chunk cost 4.040 and a buffer of entries that doubled
   and copied itself cost 5.048. The bound is the measure plus 3%. *)
let test_retained_append () =
  let tr = Trace.create () in
  let ev = Trace.Crash { pid = 0 } in
  let words =
    Alloc_probe.steady_words (fun n ->
        for _ = 1 to n do
          Trace.append tr ~at:0 ev
        done)
  in
  if words > 2.3 then Alcotest.failf "%.3f words per retained append (bound 2.3)" words

(* Words per query of an oracle whose answer does not change, and that
   answer. *)
let per_query (oracle : Detectors.Oracle.t) name want =
  let words =
    Alloc_probe.steady_words (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (oracle.Detectors.Oracle.suspects ()))
        done)
  in
  Alcotest.(check (float 0.0)) (name ^ ": 0 words per query") 0.0 words;
  Alcotest.(check (list int))
    (name ^ ": suspects")
    want
    (Types.Pidset.elements (oracle.Detectors.Oracle.suspects ()))

(* The trusting oracle, queried with its answer unchanged, returns the
   set it returned last: 0 words per query before and after a
   detection. *)
let test_ground_truth_query () =
  let engine = Engine.create ~retain_trace:false ~n:3 ~adversary:(Adversary.synchronous ()) () in
  let comp, oracle =
    Detectors.Ground_truth.trusting (Engine.ctx engine 0) ~detection_delay:5 ~peers:[ 0; 1; 2 ] ()
  in
  Engine.register engine 0 comp;
  per_query oracle "all live" [];
  Engine.crash_now engine 2;
  Engine.run engine ~until:10;
  per_query oracle "p2 detected" [ 2 ]

(* The extracted oracle of an n = 3 extraction, queried with no pair's
   flag changed, returns the set it returned last: 0 words per query
   before and after p2's crash, where building the set from the pairs'
   flags on every query cost 5 words once p2 was suspected. *)
let test_extracted_query () =
  let run = Core.Scenario.wf_extraction ~n:3 () in
  let engine = run.Core.Scenario.engine in
  let oracle = Reduction.Extract.oracle run.Core.Scenario.extract 0 in
  Engine.run engine ~until:2000;
  per_query oracle "all live" [];
  Engine.crash_now engine 2;
  Engine.run engine ~until:6000;
  per_query oracle "p2 crashed" [ 2 ]

(* ------------------------------------------------------------------ *)
(* Model-checker schedules: what one schedule pays before and around its
   run. The model checker creates an engine per schedule, so creation is
   counted whole, not per tick. *)

(* 133 words: the wheel starts at 4 slots, where a fixed 256-slot wheel
   took 514 of 640. *)
let test_engine_create () =
  let adversary = Adversary.dls ~delta:2 ~phi:1 () in
  let create () = ignore (Sys.opaque_identity (Engine.create ~n:2 ~adversary ())) in
  create ();
  let words = Alloc_probe.words_of create in
  if words > 144.0 then Alcotest.failf "n = 2 Engine.create: %.0f words (bound 144)" words

(* A driven query hands its fields to a callback: with callbacks that
   allocate nothing, neither does the query. The replayer answers from a
   dense table, so a replayed query allocates nothing either. *)
let test_driven_queries () =
  let base = Adversary.dls ~delta:2 ~phi:1 () in
  let rng = Prng.create 0x5EEDL in
  let n = 2000 in
  let per_query name f =
    let words =
      Alloc_probe.steady_words ~n (fun n ->
          for now = 1 to n do
            ignore (Sys.opaque_identity (f now))
          done)
    in
    Alcotest.(check (float 0.0)) (name ^ ": 0 words per driven query") 0.0 words
  in
  let fixed = Adversary.drive ((fun ~now:_ ~src:_ ~dst:_ _ -> 1), fun ~now:_ _ _ -> true) base in
  per_query "delay" (fun now -> fixed.Adversary.delay rng ~now ~src:0 ~dst:1);
  per_query "step" (fun now -> fixed.Adversary.steps rng ~now 1);
  (* [steady_words ~n] makes n + n + 2n queries: the table covers them all. *)
  let replayed decision =
    let len = 4 * n in
    let overrides = List.init len (fun i -> (i, decision i)) in
    Adversary.drive (Adversary.replayer ~len ~overrides) base
  in
  let delays = replayed (fun i -> Adversary.Delay (1 + (i mod 2))) in
  per_query "replayed delay" (fun now -> delays.Adversary.delay rng ~now ~src:0 ~dst:1);
  let steps = replayed (fun i -> Adversary.Step (i mod 2 = 0)) in
  per_query "replayed step" (fun now -> steps.Adversary.steps rng ~now 1)

(* The 256-schedule green instance of test_mc.ml: wf on a pair, horizon
   12, delta 2, phi 1, including the explorer's own bookkeeping. It measures
   1,489 words per schedule; 1,510 when the trace kept a 3-word entry per
   event in 64-entry chunks; 1,565 when each diner's handle was a record of
   four closures beside its cell; 2,033 when each schedule also rebuilt its
   run plan (conflict graph, adversary, drive wrapper), fed a coverage
   collector no search reads and built its green checks' closures and lists;
   2,086 when each message also built a packet; 3,379 when each pending
   sibling also copied its prefix and each query built a block. The bound
   is the measure plus 3%. *)
let test_mc_schedule () =
  let base =
    {
      Check.Config.algo = "wf";
      topology = Check.Config.Pair;
      adversary = Check.Config.Dls { delta = 2; phi = 1 };
      crashes = [];
      handicap = None;
      horizon = 12;
      eat_ticks = 1;
      seed = 0x5EEDL;
    }
  in
  let mc = Mc.Explore.default ~base in
  let explore () = Mc.Explore.run ~registry:Check.Runner.default_registry mc in
  ignore (explore ());
  let schedules = ref 0 in
  let words =
    Alloc_probe.words_of (fun () ->
        schedules := (explore ()).Mc.Explore.stats.Mc.Explore.schedules)
  in
  Alcotest.(check int) "every schedule explored" 256 !schedules;
  let per_schedule = words /. float_of_int !schedules in
  if per_schedule > 1534.0 then
    Alcotest.failf "wf pair: %.0f words per schedule (bound 1534)" per_schedule

let () =
  Alcotest.run "alloc"
    [
      ( "prng",
        [
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_draws;
          Alcotest.test_case "splitmix64 known answer" `Quick test_prng_known_answer;
          Alcotest.test_case "copy advances independently" `Quick test_prng_copy_independent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "component-free step allocates nothing" `Quick test_bare_engine;
          Alcotest.test_case "ring step under 0.3 words per process-tick" `Quick test_ring;
          Alcotest.test_case "n = 2 creation" `Quick test_engine_create;
          Alcotest.test_case "a message allocates nothing" `Quick test_per_message;
        ] );
      ( "trace",
        [
          Alcotest.test_case "a phase change costs only its entry" `Quick test_cell_transitions;
          Alcotest.test_case "an off-cycle set raises and logs nothing" `Quick
            test_cell_off_cycle;
          Alcotest.test_case "an unchanged oracle answer allocates nothing" `Quick
            test_ground_truth_query;
          Alcotest.test_case "an unchanged extracted answer allocates nothing" `Quick
            test_extracted_query;
          Alcotest.test_case "a retained append costs under 2.3 words" `Quick
            test_retained_append;
          Alcotest.test_case "extraction under 1.65 words/process-tick" `Quick test_extraction;
          Alcotest.test_case "the post-hoc lemma fold allocates nothing per event" `Quick
            test_lemma_fold;
        ] );
      ( "mc",
        [
          Alcotest.test_case "driven queries allocate nothing" `Quick test_driven_queries;
          Alcotest.test_case "words per wf pair schedule" `Quick test_mc_schedule;
        ] );
    ]
