(* How the traced run sees the layers of lib/ from outside: layer ids,
   counted frames, and the wrappers and brackets that open and close
   frames around the program's own calls. None of them changes what the
   wrapped code does — the traced run re-checks every output against the
   untraced one. *)

open Dsim

(* Layer ids: indices into [layers]. The flag marks layers whose frames
   are also kept as spans; the fine-grained ones (a frame per hook call,
   query, guard or message) are only summed. *)
let item = 0
let explore = 1
let engine_create = 2
let deploy = 3
let run = 4
let hooks = 5
let subscribers = 6
let lemma_hooks = 7
let adversary = 8
let dining = 9
let detectors = 10
let monitor = 11
let lemma_post = 12
let properties = 13
let post = 14

let layers =
  [|
    ("bench.item", true);
    ("mc.explore", true);
    ("dsim.engine.create", true);
    ("dsim.engine.deploy", true);
    ("dsim.engine.run", true);
    ("dsim.engine.hooks", false);
    ("dsim.trace.subscribers", false);
    ("reduction.lemmas.hook", false);
    ("dsim.adversary", false);
    ("dining", false);
    ("detectors", false);
    ("dining.monitor", true);
    ("reduction.lemmas.post", true);
    ("detectors.properties", true);
    ("mc.explore.post", true);
  |]

type t = {
  prof : Prof.t;
  mutable queries : int;  (** Adversary queries answered. *)
  guards : int array;  (** Per layer: action guards evaluated. *)
  bodies : int array;  (** Per layer: action bodies run. *)
  words : Float.Array.t;  (** Per layer: words allocated inside counted frames. *)
  w_start : Float.Array.t;  (** By depth: allocation count when a counted frame opened. *)
  r_start : int array;  (** By depth: clock reads when a counted frame opened. *)
}

(* Words one clock read of the recorder allocates (its boxed result),
   measured when the first recorder is created (so untraced runs never
   pay for it); counted frames subtract them, so their counts are the
   program's own allocation. *)
let clock_words =
  lazy
    (let p = Prof.create [| ("calibration", false) |] in
     let a = Alloc.words () in
     for _ = 1 to 1000 do
       Prof.enter p 0;
       Prof.leave p
     done;
     let b = Alloc.words () in
     Float.round ((b -. a -. Alloc.probe) /. float_of_int (Prof.reads p)))

let create () =
  ignore (Lazy.force clock_words);
  let k = Array.length layers in
  {
    prof = Prof.create layers;
    queries = 0;
    guards = Array.make k 0;
    bodies = Array.make k 0;
    words = Float.Array.make k 0.0;
    w_start = Float.Array.make Prof.max_depth 0.0;
    r_start = Array.make Prof.max_depth 0;
  }

(* Counted frames: a frame plus the words allocated inside it. *)
let enter_counted tr layer =
  let d = Prof.depth tr.prof in
  Float.Array.set tr.w_start d (Alloc.words ());
  tr.r_start.(d) <- Prof.reads tr.prof;
  Prof.enter tr.prof layer

let leave_counted tr layer =
  Prof.leave tr.prof;
  let d = Prof.depth tr.prof in
  let reads = Prof.reads tr.prof - tr.r_start.(d) in
  let w =
    Alloc.words () -. Float.Array.get tr.w_start d -. Alloc.probe
    -. (Lazy.force clock_words *. float_of_int reads)
  in
  Float.Array.set tr.words layer (Float.Array.get tr.words layer +. w)

let words tr layer = Float.Array.get tr.words layer

(* ------------------------------------------------------------------ *)
(* Wrappers: the adversary and the components, where the benchmark builds
   them. *)

let wrap_adversary tr (a : Adversary.t) =
  let p = tr.prof in
  {
    a with
    Adversary.delay =
      (fun rng ~now ~src ~dst ->
        tr.queries <- tr.queries + 1;
        Prof.enter p adversary;
        let d = a.Adversary.delay rng ~now ~src ~dst in
        Prof.leave p;
        d);
    steps =
      (fun rng ~now pid ->
        tr.queries <- tr.queries + 1;
        Prof.enter p adversary;
        let s = a.Adversary.steps rng ~now pid in
        Prof.leave p;
        s);
  }

let wrap_component tr layer (c : Component.t) =
  let p = tr.prof in
  let action (a : Component.action) =
    Component.action a.Component.aname
      ~guard:(fun () ->
        tr.guards.(layer) <- tr.guards.(layer) + 1;
        Prof.enter p layer;
        let g = a.Component.guard () in
        Prof.leave p;
        g)
      ~body:(fun () ->
        tr.bodies.(layer) <- tr.bodies.(layer) + 1;
        Prof.enter p layer;
        a.Component.body ();
        Prof.leave p)
  in
  Component.make ~name:c.Component.cname
    ~actions:(List.map action (Array.to_list c.Component.actions))
    ~on_receive:(fun ~src m ->
      Prof.enter p layer;
      c.Component.on_receive ~src m;
      Prof.leave p)
    ()

(* ------------------------------------------------------------------ *)
(* Brackets: a benchmark hook (or subscriber) registered before the
   program's own opens a frame, and one registered after them closes it,
   so exactly the hooks [f] registers are charged to [layer]. *)

let bracket_hooks tr layer engine f =
  Engine.on_tick engine (fun () -> Prof.enter tr.prof layer);
  let r = f () in
  Engine.on_tick engine (fun () -> Prof.leave tr.prof);
  r

let bracket_subscribers tr layer trace f =
  Trace.subscribe trace (fun _ -> Prof.enter tr.prof layer);
  let r = f () in
  Trace.subscribe trace (fun _ -> Prof.leave tr.prof);
  r

(* ------------------------------------------------------------------ *)
(* Check.Runner.default_registry, rebuilt from the same public
   constructors in the same registration order, with every component
   wrapped: dining algorithms and their clients as [dining], failure
   detectors (and the queries the dining layer makes to them) as
   [detectors]. Core.Scenario.evp_suspects with no injected mistakes is
   mirrored the same way. *)

let evp_suspects tr engine ~n =
  let p = tr.prof in
  let fns =
    Array.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let comp, oracle = Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) () in
        Engine.register engine pid (wrap_component tr detectors comp);
        fun () ->
          Prof.enter p detectors;
          let s = oracle.Detectors.Oracle.suspects () in
          Prof.leave p;
          s)
  in
  fun pid -> fns.(pid)

let registry tr : Check.Runner.registry =
  let diner engine pid comp ~handle ~eat_ticks =
    let ctx = Engine.ctx engine pid in
    Engine.register engine pid (wrap_component tr dining comp);
    Engine.register engine pid
      (wrap_component tr dining (Dining.Clients.greedy ctx ~handle ~eat_ticks ()))
  in
  let with_evp make engine ~graph ~instance ~eat_ticks =
    let n = Graphs.Conflict_graph.n graph in
    let suspects = evp_suspects tr engine ~n in
    for pid = 0 to n - 1 do
      let comp, handle =
        make (Engine.ctx engine pid) ~graph ~instance ~suspects:(suspects pid)
      in
      diner engine pid comp ~handle ~eat_ticks
    done
  in
  let hygienic engine ~graph ~instance ~eat_ticks =
    for pid = 0 to Graphs.Conflict_graph.n graph - 1 do
      let comp, handle, _ = Dining.Hygienic.component (Engine.ctx engine pid) ~instance ~graph () in
      diner engine pid comp ~handle ~eat_ticks
    done
  in
  let ftme engine ~graph ~instance ~eat_ticks =
    let n = Graphs.Conflict_graph.n graph in
    let members = List.init n Fun.id in
    for pid = 0 to n - 1 do
      let ctx = Engine.ctx engine pid in
      let comp, oracle = Detectors.Ground_truth.trusting ctx ~peers:members () in
      Engine.register engine pid (wrap_component tr detectors comp);
      let suspects () =
        Prof.enter tr.prof detectors;
        let s = oracle.Detectors.Oracle.suspects () in
        Prof.leave tr.prof;
        s
      in
      let dcomp, handle, _ = Dining.Ftme.component ctx ~instance ~members ~suspects () in
      diner engine pid dcomp ~handle ~eat_ticks
    done
  in
  [
    ( "wf",
      with_evp (fun ctx ~graph ~instance ~suspects ->
          let c, h, _ = Dining.Wf_ewx.component ctx ~instance ~graph ~suspects () in
          (c, h)) );
    ( "kfair",
      with_evp (fun ctx ~graph ~instance ~suspects ->
          let c, h, _ = Dining.Kfair.component ctx ~instance ~graph ~suspects () in
          (c, h)) );
    ( "fl1",
      with_evp (fun ctx ~graph ~instance ~suspects ->
          Dining.Fl1.component ctx ~instance ~graph ~suspects ()) );
    ("hygienic", hygienic);
    ("ftme", ftme);
  ]
