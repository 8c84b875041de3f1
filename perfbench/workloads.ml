(* The four workloads. Each [plain] function does the workload's fixed
   work once (one rep) with tracing off and returns its times, exact
   counts and deterministic outputs; each [traced] function does the
   same work with every layer boundary recorded. *)

open Dsim

let now = Obs.Instrument.now_s

(* [--seed 0] is the canonical instance, built from the seeds the
   matching CLI commands and bench experiments use; its outputs are
   pinned in suite.ml. Any other seed derives a fresh engine seed for an
   instance of the same shape; the fuzz campaign is fixed (see
   Fuzz.root). *)
let instance_seed base seed =
  if seed = 0 then base else Prng.next_int64 (Prng.derive base ~index:seed)

(* ------------------------------------------------------------------ *)
(* Exact allocation and collection counts over one rep. *)

type gc = {
  alloc_words : float;  (** minor + major - promoted *)
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type gc_mark = { words : Alloc.t; stat : Gc.stat }

let gc_mark () =
  let stat = Gc.quick_stat () in
  { words = Alloc.read (); stat }

let gc_since m =
  let b = Alloc.read () in
  let stat = Gc.quick_stat () in
  let a = m.words in
  let major = b.Alloc.major -. a.Alloc.major and promoted = b.Alloc.promoted -. a.Alloc.promoted in
  {
    alloc_words = b.Alloc.minor -. a.Alloc.minor -. Alloc.probe +. major -. promoted;
    major_words = major;
    promoted_words = promoted;
    minor_collections = stat.Gc.minor_collections - m.stat.Gc.minor_collections;
    major_collections = stat.Gc.major_collections - m.stat.Gc.major_collections;
  }

(* ------------------------------------------------------------------ *)

type rep = {
  wall_s : float;  (** Set-up, simulation and checks. *)
  setup_s : float;  (** Set-up time inside one rep: one build or pass, or all of mc's. *)
  setup_items : float array;  (** Readings of [setup_s], each from a short stretch of set-ups. *)
  proc_ticks : int;
  items : float array;  (** Per-item latency, seconds. *)
  item_ticks : float array;  (** Process-ticks each item simulates. *)
  attempted : int;
  failed : int;
  gc : gc;
  top_heap_words : int;  (** Gc.quick_stat's, read before any timed extra set-ups. *)
  outputs : (string * string) list;  (** Deterministic outputs, pinned. *)
}

(* One traced rep: the same fixed work with every layer boundary
   recorded in a Layered.t. *)
type trep = {
  t_wall_s : float;
  t_proc_ticks : int;
  msgs : int;  (** Messages sent. *)
  events : int;  (** Trace events appended. *)
  t_outputs : (string * string) list;  (** Must equal the untraced rep's. *)
  fidelity : string list;  (** Per-item differences from the untraced rep. *)
  counts : (string * float) list;  (** Workload-specific exact counts. *)
}

(* Items shorter than about a millisecond are timed in blocks of
   [block] consecutive ones: the only sanctioned clock
   (Obs.Instrument.now_s) reads in whole microseconds, too coarse for a
   20-microsecond tick or model-checker run. *)
let block = 50

(* Growable float buffer that allocates only when it doubles. *)
module Fbuf = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create cap = { a = Float.Array.make (max 16 cap) 0.0; n = 0 }

  let add b x =
    if b.n = Float.Array.length b.a then begin
      let a = Float.Array.make (2 * b.n) 0.0 in
      Float.Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Float.Array.set b.a b.n x;
    b.n <- b.n + 1

  let get b i = Float.Array.get b.a i
end

(* One set-up of [fuzz], [ring] or [extract] takes from a twentieth of
   a millisecond to a few milliseconds, so each rep times many set-ups of
   the same instance, as readings the run can take the fastest 1% of
   (see suite.ml). [timed_setups ~chunk k build] runs [build] [k] times
   in chunks of [chunk], throwing the results away, starting from a
   fully collected heap, and returns each chunk's time per set-up: a
   chunk of at least 0.2 ms keeps the microsecond clock's step under
   0.5%. A rep calls it after its own work and after reading its
   counters and top heap, so the extra set-ups change no exact metric. *)
let timed_setups ~chunk k build =
  Gc.full_major ();
  Array.init (k / chunk) (fun _ ->
      let t0 = now () in
      for _ = 1 to chunk do
        ignore (Sys.opaque_identity (build ()))
      done;
      (now () -. t0) /. float_of_int chunk)

(* ------------------------------------------------------------------ *)
(* fuzz: a Check.Campaign over the default registry, as `dinersim fuzz
   -j 1` runs it. 100 runs keep a rep near 1.5 s, so a 20-second run
   holds about a thousand runs to take the fastest 1% from. *)

module Fuzz = struct
  let runs = 100
  let max_horizon = 6000

  (* The campaign is always `dinersim fuzz --seed 0xF5EED --runs 100`,
     whatever the benchmark seed: the first half of the repository's
     green fuzz smoke (run i depends only on the root seed and i).
     Other schedules of the same configs are not all green: advancing each
     run's engine random stream by a few draws makes run 37 (kfair on a
     4-ring under async delays with one diner slowed to 30%, horizon 3000)
     fail the bounded eventual-weak-exclusion check for some seeds, and
     campaigns drawn from other root seeds change the total work by
     several percent. *)
  let root = 0xF5EEDL

  let outputs ~violations ~meals ~events ~coverage =
    [
      ("violations", string_of_int violations);
      ("meals", string_of_int meals);
      ("trace_events", string_of_int events);
      ("coverage", coverage);
    ]

  (* What the decomposition must reproduce of each run. *)
  let summary (o : Check.Runner.outcome) =
    Printf.sprintf "checks=%s meals=%d events=%d coverage=%s"
      (String.concat ","
         (List.map
            (fun (c : Obs.Report.check) ->
              Printf.sprintf "%s:%b" c.Obs.Report.name c.Obs.Report.holds)
            o.Check.Runner.checks))
      o.Check.Runner.meals o.Check.Runner.trace_events
      (Obs.Coverage.digest o.Check.Runner.coverage)

  let config index =
    Check.Config.generate (Prng.derive root ~index)
      ~algos:(List.map fst Check.Runner.default_registry)
      ~families:Check.Config.all_families ~max_horizon

  (* The campaign's set-up, as Check.Runner.run does it for each run:
     create the engine and deploy the config's algorithm. *)
  let setup_pass () =
    for index = 0 to runs - 1 do
      let c = config index in
      let graph = Check.Config.graph c in
      let engine =
        Engine.create ~seed:c.Check.Config.seed ~n:(Graphs.Conflict_graph.n graph)
          ~adversary:(Check.Config.to_adversary c) ()
      in
      (List.assoc c.Check.Config.algo Check.Runner.default_registry)
        engine ~graph ~instance:Check.Runner.instance ~eat_ticks:c.Check.Config.eat_ticks
    done

  (* Set-up passes timed per rep (see [timed_setups]); one takes
     1.1–1.9 ms on the host the README describes. A run of ten reps
     holds a thousand. *)
  let setups = 100

  (* [on_run] also sees every run's outcome; [campaign_self] receives the
     campaign's own time, its wall minus its runs'. The campaign runs with
     the registry unwrapped; set-up is timed in [setups] passes of its own
     after it. *)
  let plain ?(on_run = fun (_ : int) (_ : Check.Runner.outcome) -> ())
      ?(campaign_self = ignore) () =
    let g0 = gc_mark () in
    let t0 = now () in
    let registry = Check.Runner.default_registry in
    let proc_ticks = ref 0 and meals = ref 0 and events = ref 0 in
    let item_ticks = Array.make runs 0.0 in
    let on_run i (c : Check.Config.t) (o : Check.Runner.outcome) =
      let ticks = Check.Config.n_procs c * c.Check.Config.horizon in
      proc_ticks := !proc_ticks + ticks;
      item_ticks.(i) <- float_of_int ticks;
      meals := !meals + o.Check.Runner.meals;
      events := !events + o.Check.Runner.trace_events;
      on_run i o
    in
    let camp =
      Check.Campaign.run ~runs ~max_horizon ~jobs:1 ~on_run ~registry ~root_seed:root ()
    in
    let wall_s = now () -. t0 in
    let gc = gc_since g0 in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    campaign_self (wall_s -. Array.fold_left ( +. ) 0.0 camp.Check.Campaign.run_walls);
    let violations = List.length camp.Check.Campaign.violations in
    let setup_items = timed_setups ~chunk:1 setups setup_pass in
    {
      wall_s;
      setup_s = Stats.mean setup_items;
      setup_items;
      proc_ticks = !proc_ticks;
      items = Array.copy camp.Check.Campaign.run_walls;
      item_ticks;
      attempted = runs;
      failed = violations;
      gc;
      top_heap_words;
      outputs =
        outputs ~violations ~meals:!meals ~events:!events
          ~coverage:(Obs.Coverage.digest camp.Check.Campaign.coverage);
    }

  (* The campaign's runs, each through Check.Runner.run's public steps,
     with a boundary between each: engine creation, the standard
     instrumentation and coverage collector (bracketed), deployment with
     the mirrored registry, the run, and the dining monitors. [reference]
     holds each run's outcome from the untraced campaign. *)
  let traced (tr : Layered.t) ~reference =
    let p = tr.Layered.prof in
    let registry = Layered.registry tr in
    let instance = Check.Runner.instance in
    let proc_ticks = ref 0 and msgs = ref 0 and events = ref 0 and meals = ref 0 in
    let violations = ref 0 and fidelity = ref [] in
    let coverage = ref (Obs.Coverage.empty ()) in
    Prof.reserve p (8 * runs);
    let t0 = now () in
    for index = 0 to runs - 1 do
      let c = config index in
      Prof.set_item p index;
      Prof.enter p Layered.item;
      let graph = Check.Config.graph c in
      let n = Graphs.Conflict_graph.n graph in
      let horizon = c.Check.Config.horizon in
      Layered.enter_counted tr Layered.engine_create;
      let engine =
        Engine.create ~seed:c.Check.Config.seed ~n
          ~adversary:(Layered.wrap_adversary tr (Check.Config.to_adversary c))
          ()
      in
      Layered.leave_counted tr Layered.engine_create;
      let trace = Engine.trace engine in
      let inst, cov =
        Layered.bracket_hooks tr Layered.hooks engine (fun () ->
            Layered.bracket_subscribers tr Layered.subscribers trace (fun () ->
                let inst = Obs.Instrument.install ~metrics:(Obs.Metrics.create ()) engine in
                let cov = Obs.Coverage.create () in
                Obs.Coverage.attach cov trace;
                (inst, cov)))
      in
      Layered.enter_counted tr Layered.deploy;
      (List.assoc c.Check.Config.algo registry)
        engine ~graph ~instance ~eat_ticks:c.Check.Config.eat_ticks;
      Layered.leave_counted tr Layered.deploy;
      List.iter
        (fun (pid, at) -> if pid >= 0 && pid < n then Engine.schedule_crash engine pid ~at)
        c.Check.Config.crashes;
      Layered.enter_counted tr Layered.run;
      Engine.run engine ~until:horizon;
      Layered.leave_counted tr Layered.run;
      Obs.Instrument.finalize inst;
      Layered.enter_counted tr Layered.monitor;
      let checks =
        [
          Obs.Report.of_verdict "wait_freedom"
            (Dining.Monitor.wait_freedom trace ~instance ~n ~horizon ~slack:(horizon / 3));
          Obs.Report.of_verdict "eventual_weak_exclusion"
            (Dining.Monitor.eventual_weak_exclusion trace ~instance ~graph ~horizon
               ~suffix_from:(horizon / 2));
          Obs.Report.of_verdict "exiting_finite"
            (Dining.Monitor.exiting_finite trace ~instance ~n ~horizon ~slack:(horizon / 3));
        ]
      in
      let run_meals =
        List.init n (fun pid -> Dining.Monitor.eat_count trace ~instance ~pid)
        |> List.fold_left ( + ) 0
      in
      Layered.leave_counted tr Layered.monitor;
      let outcome =
        {
          Check.Runner.checks;
          failed = [];
          meals = run_meals;
          trace_events = Trace.length trace;
          coverage = Obs.Coverage.snapshot cov;
        }
      in
      Prof.leave p;
      if List.exists (fun (ch : Obs.Report.check) -> not ch.Obs.Report.holds) checks then
        incr violations;
      let got = summary outcome and want = summary reference.(index) in
      if not (String.equal got want) then
        fidelity := Printf.sprintf "run %d: traced %s, untraced %s" index got want :: !fidelity;
      proc_ticks := !proc_ticks + (n * Engine.now engine);
      msgs := !msgs + Engine.sent_total engine;
      events := !events + Trace.length trace;
      meals := !meals + run_meals;
      coverage := Obs.Coverage.union !coverage outcome.Check.Runner.coverage
    done;
    {
      t_wall_s = now () -. t0;
      t_proc_ticks = !proc_ticks;
      msgs = !msgs;
      events = !events;
      t_outputs =
        outputs ~violations:!violations ~meals:!meals ~events:!events
          ~coverage:(Obs.Coverage.digest !coverage);
      fidelity = List.rev !fidelity;
      counts = [];
    }
end

(* ------------------------------------------------------------------ *)
(* mc: exhaustive DLS exploration of wf on a pair, as `dinersim check
   --algo wf --topology pair --horizon 14 --delta 3 --phi 1 --eat-ticks 1
   -j 1` runs it. *)

module Mc_work = struct
  let horizon = 14
  let n = 2

  let config seed =
    let base =
      {
        Check.Config.algo = "wf";
        topology = Check.Config.Pair;
        adversary = Check.Config.Dls { delta = 3; phi = 1 };
        crashes = [];
        handicap = None;
        horizon;
        eat_ticks = 1;
        seed = instance_seed 0x5EEDL seed;
      }
    in
    { (Mc.Explore.default ~base) with Mc.Explore.jobs = 1 }

  let outputs (s : Mc.Explore.stats) =
    [
      ("schedules", string_of_int s.Mc.Explore.schedules);
      ("violations", string_of_int s.Mc.Explore.violation_count);
      ("truncated", string_of_bool s.Mc.Explore.truncated);
    ]

  (* An item is a block of [block] consecutive engine runs the explorer
     starts (complete schedules, and the few prefix runs of its root
     split): the time from one block's first builder entry to the next
     block's. *)
  let items entries ~stop =
    Array.init
      ((entries.Fbuf.n + block - 1) / block)
      (fun k ->
        let next =
          if (k + 1) * block < entries.Fbuf.n then Fbuf.get entries ((k + 1) * block) else stop
        in
        next -. Fbuf.get entries (k * block))

  (* Readings of a rep's deployment time, one per block of [block]
     deployments: the block's mean deployment times the rep's number. *)
  let setup_items deploys =
    let n = deploys.Fbuf.n in
    Array.init
      ((n + block - 1) / block)
      (fun k ->
        let hi = min n ((k + 1) * block) and sum = ref 0.0 in
        for i = k * block to hi - 1 do
          sum := !sum +. Fbuf.get deploys i
        done;
        !sum /. float_of_int (hi - (k * block)) *. float_of_int n)

  (* The registry's builders wrapped to time each deployment and to
     record the clock at each builder entry. *)
  let plain ~seed =
    let cfg = config seed in
    let entries = Fbuf.create 65536 and deploys = Fbuf.create 65536 in
    let g0 = gc_mark () in
    let t0 = now () in
    let setup = ref 0.0 in
    let registry =
      List.map
        (fun (name, build) ->
          ( name,
            fun engine ~graph ~instance ~eat_ticks ->
              let t0 = now () in
              Fbuf.add entries t0;
              build engine ~graph ~instance ~eat_ticks;
              let d = now () -. t0 in
              Fbuf.add deploys d;
              setup := !setup +. d ))
        Check.Runner.default_registry
    in
    let result = Mc.Explore.run ~registry cfg in
    let stop = now () in
    let gc = gc_since g0 in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let s = result.Mc.Explore.stats in
    let proc_ticks = s.Mc.Explore.schedules * n * horizon in
    let items = items entries ~stop in
    {
      wall_s = stop -. t0;
      setup_s = !setup;
      setup_items = setup_items deploys;
      proc_ticks;
      items;
      (* Complete schedules spread evenly over the blocks: the few prefix
         runs of the explorer's root split simulate fewer ticks. *)
      item_ticks =
        Array.make (Array.length items) (float_of_int proc_ticks /. float_of_int (Array.length items));
      attempted = s.Mc.Explore.schedules;
      failed = s.Mc.Explore.violation_count;
      gc;
      top_heap_words;
      outputs = outputs s;
    }

  (* Check.Runner.run cannot be split from outside here, so the builder
     wrapper splits each engine run: it closes the previous run's frames,
     times the deployment, and registers a last-tick hook that ends the
     run frame and opens [post] (checks, explorer bookkeeping, the next
     engine's creation) until the next builder entry. Runs the explorer
     abandons at its root split never reach the last tick; their frames
     are closed at the next entry. *)
  let traced (tr : Layered.t) ~seed =
    let p = tr.Layered.prof in
    let cfg = config seed in
    let complete = ref 0 and msgs = ref 0 and events = ref 0 and runs = ref 0 in
    Prof.reserve p (5 * 60_000);
    let t0 = now () in
    Prof.enter p Layered.explore;
    let top = Prof.depth p in
    let registry =
      List.map
        (fun (name, build) ->
          ( name,
            fun engine ~graph ~instance ~eat_ticks ->
              Prof.unwind_to p top;
              Prof.set_item p !runs;
              incr runs;
              Prof.enter p Layered.item;
              Layered.enter_counted tr Layered.deploy;
              build engine ~graph ~instance ~eat_ticks;
              Layered.leave_counted tr Layered.deploy;
              Engine.on_tick engine (fun () ->
                  if Engine.now engine = horizon then begin
                    Layered.leave_counted tr Layered.run;
                    Prof.enter p Layered.post;
                    incr complete;
                    msgs := !msgs + Engine.sent_total engine;
                    events := !events + Trace.length (Engine.trace engine)
                  end);
              Layered.enter_counted tr Layered.run ))
        (Layered.registry tr)
    in
    let result = Mc.Explore.run ~registry cfg in
    Prof.unwind_to p top;
    Prof.leave p;
    let s = result.Mc.Explore.stats in
    {
      t_wall_s = now () -. t0;
      t_proc_ticks = !complete * n * horizon;
      msgs = !msgs;
      events = !events;
      t_outputs = outputs s;
      fidelity = [];
      counts =
        [
          ("mc.explore.schedules", float_of_int s.Mc.Explore.schedules);
          ("mc.explore.pruned", float_of_int s.Mc.Explore.pruned);
        ];
    }
end

(* ------------------------------------------------------------------ *)
(* ring: 10^2 hygienic diners with greedy clients on a ring under
   async_uniform for 20,000 ticks, trace not retained — bench/experiments.ml's
   scale2 point (the same 2M process-ticks as every scale point). A trace
   subscriber streams the meal count and the exclusion check. The
   instance (3.2 MB top heap) stays near the 2 MiB L2: at 10^3 diners
   (13 MB) and 10^4 (42 MB), rep times on a shared host swung by a
   quarter and more within one run. *)

module Ring = struct
  let n = 100
  let ticks = 20_000
  let instance = "sc"

  (* Set-ups timed per rep (see [timed_setups]), in pairs: one takes
     0.12–0.25 ms on the host the README describes. *)
  let setups = 96

  (* Streaming exclusion check: [overlaps] is the number of ring edges
     whose two diners are both eating right now. *)
  type excl = {
    eating : bool array;
    mutable overlaps : int;
    mutable meals : int;
    mutable events : int;
  }

  let eating_neighbours x pid =
    let l = if pid = 0 then n - 1 else pid - 1 and r = if pid = n - 1 then 0 else pid + 1 in
    Bool.to_int x.eating.(l) + Bool.to_int x.eating.(r)

  let observe x (e : Trace.entry) =
    x.events <- x.events + 1;
    match e.Trace.ev with
    | Trace.Transition { pid; to_ = Types.Eating; _ } ->
        x.overlaps <- x.overlaps + eating_neighbours x pid;
        x.eating.(pid) <- true;
        x.meals <- x.meals + 1
    | Trace.Transition { pid; from_ = Types.Eating; _ } ->
        x.eating.(pid) <- false;
        x.overlaps <- x.overlaps - eating_neighbours x pid
    | _ -> ()

  let adversary () = Adversary.async_uniform ()

  (* [wrap] is the identity in plain runs; the traced run passes its
     component wrapper. *)
  let deploy ?(wrap = fun c -> c) engine =
    let graph = Graphs.Conflict_graph.ring ~n in
    for pid = 0 to n - 1 do
      let ctx = Engine.ctx engine pid in
      let comp, handle, _ = Dining.Hygienic.component ctx ~instance ~graph () in
      Engine.register engine pid (wrap comp);
      Engine.register engine pid (wrap (Dining.Clients.greedy ctx ~handle ()))
    done

  let create ~seed adversary =
    Engine.create ~seed:(instance_seed 4242L seed) ~retain_trace:false ~n ~adversary ()

  let checker engine =
    let x = { eating = Array.make n false; overlaps = 0; meals = 0; events = 0 } in
    Trace.subscribe (Engine.trace engine) (observe x);
    x

  let outputs engine x ~bad_ticks =
    [
      ("meals", string_of_int x.meals);
      ("sent", string_of_int (Engine.sent_total engine));
      ("in_flight", string_of_int (Engine.in_flight_total engine));
      ("overlap_ticks", string_of_int bad_ticks);
    ]

  let build ~seed () =
    let engine = create ~seed (adversary ()) in
    let x = checker engine in
    deploy engine;
    (engine, x)

  (* An item is a block of [block] ticks; the exclusion check runs after
     every tick. *)
  let plain ~seed =
    let items = Array.make (ticks / block) 0.0 in
    let g0 = gc_mark () in
    let t0 = now () in
    let engine, x = build ~seed () in
    let bad = ref 0 in
    for k = 0 to (ticks / block) - 1 do
      let ts = now () in
      for _ = 1 to block do
        Engine.step engine;
        if x.overlaps > 0 then incr bad
      done;
      items.(k) <- now () -. ts
    done;
    let wall_s = now () -. t0 in
    let gc = gc_since g0 in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let setup_items = timed_setups ~chunk:2 setups (build ~seed) in
    {
      wall_s;
      setup_s = Stats.mean setup_items;
      setup_items;
      proc_ticks = n * ticks;
      items;
      item_ticks = Array.make (ticks / block) (float_of_int (n * block));
      attempted = ticks;
      failed = !bad;
      gc;
      top_heap_words;
      outputs = outputs engine x ~bad_ticks:!bad;
    }

  let traced (tr : Layered.t) ~seed =
    let p = tr.Layered.prof in
    Prof.reserve p (ticks + 4);
    let t0 = now () in
    Layered.enter_counted tr Layered.engine_create;
    let engine = create ~seed (Layered.wrap_adversary tr (adversary ())) in
    Layered.leave_counted tr Layered.engine_create;
    Layered.enter_counted tr Layered.deploy;
    let x =
      Layered.bracket_subscribers tr Layered.subscribers (Engine.trace engine) (fun () ->
          checker engine)
    in
    deploy ~wrap:(Layered.wrap_component tr Layered.dining) engine;
    Layered.leave_counted tr Layered.deploy;
    let bad = ref 0 in
    for i = 0 to ticks - 1 do
      Prof.set_item p i;
      Layered.enter_counted tr Layered.run;
      Engine.step engine;
      Layered.leave_counted tr Layered.run;
      if x.overlaps > 0 then incr bad
    done;
    {
      t_wall_s = now () -. t0;
      t_proc_ticks = n * ticks;
      msgs = Engine.sent_total engine;
      events = x.events;
      t_outputs = outputs engine x ~bad_ticks:!bad;
      fidelity = [];
      counts = [];
    }
end

(* ------------------------------------------------------------------ *)
(* extract: ◇P extraction from the WF-◇WX box on 3 processes with the
   Lemma monitors, as `dinersim extract -n 3 --lemmas` runs it, then the
   post-hoc lemma reports and the ◇P property checks. *)

module Extract = struct
  let n = 3
  let horizon = 20_000

  let adversary () = Adversary.partial_sync ~gst:500 ()
  let seed_of seed = instance_seed 7L seed

  let properties engine =
    let trace = Engine.trace engine in
    let sc =
      Detectors.Properties.strong_completeness trace ~detector:"extracted" ~n
        ~initially_suspected:true
    in
    let esa =
      Detectors.Properties.eventual_strong_accuracy trace ~detector:"extracted" ~n
        ~initially_suspected:true
    in
    [
      ("strong_completeness", sc.Detectors.Properties.holds);
      ("eventual_strong_accuracy", esa.Detectors.Properties.holds);
    ]

  let lemmas engine onlines =
    List.concat_map
      (fun ((pair : Reduction.Pair.t), online) ->
        List.map
          (fun (r : Reduction.Lemmas.report) ->
            (pair.Reduction.Pair.name ^ "." ^ r.Reduction.Lemmas.lemma, Reduction.Lemmas.ok r))
          (Reduction.Lemmas.online_reports online @ Reduction.Lemmas.trace_reports ~engine ~pair))
      onlines

  let outputs engine results =
    let bad = List.filter_map (fun (name, ok) -> if ok then None else Some name) results in
    [
      ("checks", string_of_int (List.length results));
      ("failed_checks", String.concat "," bad);
      ("trace_events", string_of_int (Trace.length (Engine.trace engine)));
    ]

  (* Set-ups timed per rep (see [timed_setups]), in fours: one takes
     0.05–0.1 ms on the host the README describes. *)
  let setups = 192

  let build ~seed () =
    let run = Core.Scenario.wf_extraction ~seed:(seed_of seed) ~adversary:(adversary ()) ~n () in
    let inst = Obs.Instrument.install ~metrics:(Obs.Metrics.create ()) run.Core.Scenario.engine in
    (run, inst)

  (* An item is a block of [block] ticks. *)
  let plain ~seed =
    let items = Array.make (horizon / block) 0.0 in
    let g0 = gc_mark () in
    let t0 = now () in
    let run, inst = build ~seed () in
    let engine = run.Core.Scenario.engine in
    for k = 0 to (horizon / block) - 1 do
      let ts = now () in
      for _ = 1 to block do
        Engine.step engine
      done;
      items.(k) <- now () -. ts
    done;
    Obs.Instrument.finalize inst;
    let results = lemmas engine run.Core.Scenario.onlines @ properties engine in
    let wall_s = now () -. t0 in
    let gc = gc_since g0 in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let setup_items = timed_setups ~chunk:4 setups (build ~seed) in
    {
      wall_s;
      setup_s = Stats.mean setup_items;
      setup_items;
      proc_ticks = n * horizon;
      items;
      item_ticks = Array.make (horizon / block) (float_of_int (n * block));
      attempted = List.length results;
      failed = List.length (List.filter (fun (_, ok) -> not ok) results);
      gc;
      top_heap_words;
      outputs = outputs engine results;
    }

  (* Core.Scenario.wf_extraction's steps, in its order, with the heartbeat
     detectors and the black-box diners wrapped, the Lemma monitors'
     hooks bracketed apart from Obs.Instrument's, and the post-hoc
     checks split into lemma reports and ◇P properties. *)
  let traced (tr : Layered.t) ~seed =
    let p = tr.Layered.prof in
    Prof.reserve p (horizon + 8);
    let t0 = now () in
    Layered.enter_counted tr Layered.engine_create;
    let engine =
      Engine.create ~seed:(seed_of seed) ~n ~adversary:(Layered.wrap_adversary tr (adversary ())) ()
    in
    Layered.leave_counted tr Layered.engine_create;
    Layered.enter_counted tr Layered.deploy;
    let suspects = Layered.evp_suspects tr engine ~n in
    let factory = Reduction.Pair.wf_ewx_factory ~n ~suspects in
    let dining ctx ~instance ~participants =
      let c, h = factory ctx ~instance ~participants in
      (Layered.wrap_component tr Layered.dining c, h)
    in
    let extract = Reduction.Extract.create ~engine ~dining ~members:(List.init n Fun.id) () in
    let onlines =
      Layered.bracket_hooks tr Layered.lemma_hooks engine (fun () ->
          List.map
            (fun pair -> (pair, Reduction.Lemmas.install_online ~engine ~pair))
            extract.Reduction.Extract.pairs)
    in
    let inst =
      Layered.bracket_hooks tr Layered.hooks engine (fun () ->
          Layered.bracket_subscribers tr Layered.subscribers (Engine.trace engine) (fun () ->
              Obs.Instrument.install ~metrics:(Obs.Metrics.create ()) engine))
    in
    Layered.leave_counted tr Layered.deploy;
    for i = 0 to horizon - 1 do
      Prof.set_item p i;
      Layered.enter_counted tr Layered.run;
      Engine.step engine;
      Layered.leave_counted tr Layered.run
    done;
    Obs.Instrument.finalize inst;
    Layered.enter_counted tr Layered.lemma_post;
    let lemma = lemmas engine onlines in
    Layered.leave_counted tr Layered.lemma_post;
    Layered.enter_counted tr Layered.properties;
    let props = properties engine in
    Layered.leave_counted tr Layered.properties;
    {
      t_wall_s = now () -. t0;
      t_proc_ticks = n * horizon;
      msgs = Engine.sent_total engine;
      events = Trace.length (Engine.trace engine);
      t_outputs = outputs engine (lemma @ props);
      fidelity = [];
      counts = [];
    }
end
