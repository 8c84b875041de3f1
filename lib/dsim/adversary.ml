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
(* Record / replay.

   Both wrappers forward every query to the base adversary *first*, so the
   engine-shared PRNG consumes exactly the draws the base would consume.
   Recording therefore never perturbs the run it observes, and a replay
   whose overrides equal the recorded decisions reproduces the recorded
   run bit-identically — while a replay with *edited* decisions (the
   shrinker's neutralised candidates) stays fully deterministic, because
   the base draws are a deterministic function of the engine PRNG state
   and the query sequence. *)

type decision = Delay of int | Step of bool

type tape = { mutable rev : decision list; mutable count : int }

let tape () = { rev = []; count = 0 }

let tape_decisions tp =
  let a = Array.make (max tp.count 1) (Step true) in
  List.iteri (fun i d -> a.(tp.count - 1 - i) <- d) tp.rev;
  Array.sub a 0 tp.count

let push tp d =
  tp.rev <- d :: tp.rev;
  tp.count <- tp.count + 1

let record tp base =
  {
    name = base.name ^ "/rec";
    delay =
      (fun rng ~now ~src ~dst ->
        let d = base.delay rng ~now ~src ~dst in
        push tp (Delay d);
        d);
    steps =
      (fun rng ~now p ->
        let s = base.steps rng ~now p in
        push tp (Step s);
        s);
    fairness_bound = base.fairness_bound;
  }

let replay ~len ~overrides base =
  if len < 0 then invalid_arg "Adversary.replay: negative length";
  let tbl = Hashtbl.create (max 16 (2 * List.length overrides)) in
  List.iter
    (fun (i, d) ->
      if i < 0 || i >= len then invalid_arg "Adversary.replay: override out of range";
      Hashtbl.replace tbl i d)
    overrides;
  let cursor = ref 0 in
  let next () =
    let i = !cursor in
    incr cursor;
    i
  in
  {
    name = Printf.sprintf "%s/replay(%d of %d)" base.name (Hashtbl.length tbl) len;
    delay =
      (fun rng ~now ~src ~dst ->
        let b = base.delay rng ~now ~src ~dst in
        let i = next () in
        if i >= len then b
        else
          match Hashtbl.find_opt tbl i with
          | Some (Delay d) -> d
          | Some (Step _) | None -> 1);
    steps =
      (fun rng ~now p ->
        let b = base.steps rng ~now p in
        let i = next () in
        if i >= len then b
        else match Hashtbl.find_opt tbl i with Some (Step s) -> s | Some (Delay _) | None -> true);
    fairness_bound = base.fairness_bound;
  }

(* ------------------------------------------------------------------ *)
(* DLS-style parametric adversary and the drive hook (model checking).

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

let drive ~delay ~step base =
  {
    name = base.name ^ "/driven";
    delay =
      (fun rng ~now ~src ~dst ->
        (* Burn the base draws first, exactly like [record]: a driven run
           and its full-override [replay] then consume identical PRNG
           streams, so counterexample artifacts replay bit-identically. *)
        let (_ : int) = base.delay rng ~now ~src ~dst in
        let d = delay ~now ~src ~dst in
        if d < 1 then invalid_arg "Adversary.drive: delay must be >= 1" else d);
    steps =
      (fun rng ~now p ->
        let (_ : bool) = base.steps rng ~now p in
        step ~now p);
    fairness_bound = base.fairness_bound;
  }

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
