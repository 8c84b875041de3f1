type t = {
  name : string;
  delay : Prng.t -> now:Types.time -> src:Types.pid -> dst:Types.pid -> int;
  steps : Prng.t -> now:Types.time -> Types.pid -> bool;
  fairness_bound : int;
}

let synchronous () =
  {
    name = "synchronous";
    delay = (fun _ ~now:_ ~src:_ ~dst:_ -> 1);
    steps = (fun _ ~now:_ _ -> true);
    fairness_bound = 1;
  }

let async_uniform ?(max_delay = 8) ?(step_prob = 0.7) ?(fairness_bound = 16) () =
  {
    name = Printf.sprintf "async(d<=%d,p=%.2f)" max_delay step_prob;
    delay = (fun rng ~now:_ ~src:_ ~dst:_ -> Prng.int_in rng ~lo:1 ~hi:max_delay);
    steps = (fun rng ~now:_ _ -> Prng.chance rng ~p:step_prob);
    fairness_bound;
  }

let partial_sync ?(gst = 500) ?(pre_max_delay = 40) ?(delta = 4) ?(pre_step_prob = 0.5)
    ?(fairness_bound = 32) () =
  {
    name = Printf.sprintf "partial-sync(gst=%d,delta=%d)" gst delta;
    delay =
      (fun rng ~now ~src:_ ~dst:_ ->
        if now >= gst then Prng.int_in rng ~lo:1 ~hi:delta
        else Prng.int_in rng ~lo:1 ~hi:pre_max_delay);
    steps = (fun rng ~now p -> ignore p; now >= gst || Prng.chance rng ~p:pre_step_prob);
    fairness_bound;
  }

let bursty ?(gst = 800) ?(calm = 60) ?(storm = 40) ?(storm_delay = 80) ?(delta = 4)
    ?(fairness_bound = 32) () =
  let in_storm now = now mod (calm + storm) >= calm in
  {
    name = Printf.sprintf "bursty(gst=%d,storm<=%d)" gst storm_delay;
    delay =
      (fun rng ~now ~src:_ ~dst:_ ->
        if now >= gst then Prng.int_in rng ~lo:1 ~hi:delta
        else if in_storm now then Prng.int_in rng ~lo:(storm_delay / 2) ~hi:storm_delay
        else Prng.int_in rng ~lo:1 ~hi:3);
    steps =
      (fun rng ~now p ->
        ignore p;
        now >= gst || if in_storm now then Prng.chance rng ~p:0.25 else Prng.chance rng ~p:0.9);
    fairness_bound;
  }

(* ------------------------------------------------------------------ *)
(* DLS-style parametric adversary (model checking).

   [dls] is the bounded counterpart of the classic partially synchronous
   model of Dwork-Lynch-Stockmeyer: every message is delivered within
   [delta] ticks and every live process takes a step at least every [phi]
   ticks (the engine's weak-fairness backstop enforces the latter). The
   natural adversary draws both choices uniformly; under [drive] every
   choice is taken by an external controller instead — the bounded
   exhaustive explorer in lib/mc enumerates exactly this decision space. *)

let dls ?(delta = 2) ?(phi = 2) () =
  if delta < 1 then invalid_arg "Adversary.dls: delta must be >= 1";
  if phi < 1 then invalid_arg "Adversary.dls: phi must be >= 1";
  {
    name = Printf.sprintf "dls(delta=%d,phi=%d)" delta phi;
    delay = (fun rng ~now:_ ~src:_ ~dst:_ -> Prng.int_in rng ~lo:1 ~hi:delta);
    steps = (fun rng ~now:_ _ -> Prng.chance rng ~p:0.5);
    fairness_bound = phi;
  }

(* ------------------------------------------------------------------ *)
(* Steering a run.

   [drive] forwards every query to the base adversary *first*, so the
   engine-shared PRNG consumes exactly the draws the base would consume,
   then lets the controller answer, given the base's decision. A
   controller that answers with the base decision (the recorder) never
   perturbs the run it observes; one that answers with the recorded
   decisions (the replayer) reproduces the recorded run bit-identically;
   and one that edits or chooses them (the shrinker's neutralised
   candidates, the explorer) stays fully deterministic, because the base
   draws are a deterministic function of the engine PRNG state and the
   query sequence. *)

type decision = Delay of int | Step of bool

type controller =
  (now:Types.time -> src:Types.pid -> dst:Types.pid -> int -> int)
  * (now:Types.time -> Types.pid -> bool -> bool)

let drive (delay, step) base =
  {
    base with
    delay =
      (fun rng ~now ~src ~dst ->
        let d = delay ~now ~src ~dst (base.delay rng ~now ~src ~dst) in
        if d < 1 then invalid_arg "Adversary.drive: delay must be >= 1" else d);
    steps = (fun rng ~now p -> step ~now p (base.steps rng ~now p));
  }

let recorder () =
  let tape = Vec.create () in
  let delay ~now:_ ~src:_ ~dst:_ d =
    Vec.add_last tape (Delay d);
    d
  in
  let step ~now:_ _ s =
    Vec.add_last tape (Step s);
    s
  in
  ((delay, step), fun () -> Array.init (Vec.length tape) (Vec.get tape))

let replayer ~len ~overrides =
  if len < 0 then invalid_arg "Adversary.replayer: negative length";
  let table = Array.make len None in
  List.iter
    (fun (i, d) ->
      if i < 0 || i >= len then invalid_arg "Adversary.replayer: override out of range";
      table.(i) <- Some d)
    overrides;
  let cursor = ref 0 in
  let next () =
    let i = !cursor in
    incr cursor;
    i
  in
  let delay ~now:_ ~src:_ ~dst:_ base =
    let i = next () in
    if i >= len then base
    else match table.(i) with Some (Delay d) -> d | Some (Step _) | None -> 1
  in
  let step ~now:_ _ base =
    let i = next () in
    if i >= len then base
    else match table.(i) with Some (Step s) -> s | Some (Delay _) | None -> true
  in
  (delay, step)

let handicap ~slow ~factor base =
  if factor <= 0.0 || factor > 1.0 then invalid_arg "Adversary.handicap: factor in (0,1]";
  {
    name = Printf.sprintf "%s/handicap(%.2f)" base.name factor;
    delay = base.delay;
    steps =
      (fun rng ~now p ->
        let offered = base.steps rng ~now p in
        if List.mem p slow then offered && Prng.chance rng ~p:factor else offered);
    fairness_bound =
      int_of_float (ceil (float_of_int base.fairness_bound /. factor));
  }
