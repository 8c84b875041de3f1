(* The workloads as main.ml and the tests see them: dispatch by name,
   the outputs each must give, and the metrics computed from its reps. *)

let workloads = [ "fuzz"; "mc"; "ring"; "extract" ]

(* Every rep, untraced or traced, starts from a fully collected heap, so
   no rep pays for the garbage of the one before it. *)
let plain name ~seed =
  Gc.full_major ();
  match name with
  | "fuzz" -> Workloads.Fuzz.plain ()
  | "mc" -> Workloads.Mc_work.plain ~seed
  | "ring" -> Workloads.Ring.plain ~seed
  | "extract" -> Workloads.Extract.plain ~seed
  | _ -> invalid_arg name

(* Outputs every instance must give, whatever the seed. The fuzz
   campaign does not depend on the seed, so all its outputs are here. *)
let universal = function
  | "fuzz" ->
      [
        ("violations", "0");
        ("meals", "79833");
        ("trace_events", "341727");
        ("coverage", "d2441538b5c89d7c72ca1b94cd5cb482");
      ]
  | "mc" -> [ ("schedules", "59049"); ("violations", "0"); ("truncated", "false") ]
  | "ring" -> [ ("overlap_ticks", "0") ]
  | "extract" -> [ ("checks", "68"); ("failed_checks", "") ]
  | _ -> []

(* Outputs of the canonical instance, [--seed 0]. *)
let pinned = function
  | "ring" -> [ ("meals", "66415"); ("sent", "268847"); ("in_flight", "66") ]
  | "extract" -> [ ("trace_events", "34173") ]
  | _ -> []

let expected name ~seed = universal name @ if seed = 0 then pinned name else []

(* Differences between a rep's outputs and what is expected of them. *)
let mismatches ~expected outputs =
  List.filter_map
    (fun (key, want) ->
      match List.assoc_opt key outputs with
      | Some got when String.equal got want -> None
      | Some got -> Some (Printf.sprintf "%s = %s, expected %s" key got want)
      | None -> Some (Printf.sprintf "%s missing" key))
    expected

(* [timed] metrics come from the clock and vary between reps; the others
   are exact counts that repeat to the last digit in a fresh process. *)
type metric = { name : string; value : float; unit_ : string; note : string; timed : bool }

let metric ?(note = "") ?(timed = false) name unit_ value = { name; value; unit_; note; timed }

(* ------------------------------------------------------------------ *)
(* End-to-end metrics, tracing off. *)

let word_bytes = float_of_int (Sys.word_size / 8)

(* The host this benchmark was tuned on runs the same code at two
   speeds, 30-70% apart, switching every few seconds in some stretches
   and holding one speed for minutes in others, for reasons outside the
   program (see README.md, Host). Any average over a run, mean or
   median, measures how much of the run the host spent slow as much as
   it measures the program, and no run length averages out a slow
   stretch of minutes. The fastest items do not depend on that share as
   long as the run has a fast moment: even in slow stretches about 1% of
   the millisecond-long items ran at or near the fast speed. So the
   gated speed metric is the simulation rate of the fastest 1% of a
   run's items ([peak_rate]), and the gated set-up time is the fastest 1% of its set-up readings, both
   pooled over all its reps; the averages are printed beside them,
   ungated ([averages]). *)

(* The first rep is a warm-up for the averages: its outputs are checked
   and its exact counters reported, but it is not averaged unless it is
   the only rep. *)
let timed_reps = function [ only ] -> [ only ] | _ :: rest -> rest | [] -> []

(* Items of all reps, pooled: a cold first rep cannot make the fastest
   items faster, and it adds samples below the 1st percentile. *)
let pooled (reps : Workloads.rep list) f =
  Array.concat
    (List.map (fun (r : Workloads.rep) -> Array.mapi (fun i x -> f r i x) r.Workloads.items) reps)

let fast_q = 0.01

let fast_note what count =
  Printf.sprintf "1st percentile of %d %s%s" count what
    (if Stats.supported ~count (1.0 -. fast_q) then "" else ", fewer than 10 beyond it")

(* Process-ticks per second at the fast speed. Items that simulate the
   same number of ticks (blocks of mc runs or of ring and extract ticks)
   are pooled and the fastest 1% taken. Items that differ (fuzz's 100
   runs) are not comparable that way: the fastest 1% by time per tick
   would be the ten-odd reps of the few cheapest runs, and read slow
   whenever the host was slow through those. So each item is first
   divided by the median of its position over the run's reps; the
   fastest 1% of those ratios, times the summed medians, is the fast
   speed's time for all positions. *)
let peak_rate (reps : Workloads.rep list) =
  let ticks = (List.hd reps).Workloads.item_ticks in
  let total = Array.fold_left ( +. ) 0.0 in
  if Array.for_all (fun t -> t = ticks.(0)) ticks then
    let times = pooled reps (fun _ _ x -> x) in
    (ticks.(0) /. Stats.quantile times fast_q, Array.length times)
  else
    let median k =
      Stats.median (Array.of_list (List.map (fun (r : Workloads.rep) -> r.Workloads.items.(k)) reps))
    in
    let medians = Array.init (Array.length ticks) median in
    let ratios = pooled reps (fun _ k x -> x /. medians.(k)) in
    (total ticks /. (Stats.quantile ratios fast_q *. total medians), Array.length ratios)

(* [failed_checks] output checks that failed count as failed items too. *)
let end_to_end ?(failed_checks = 0) (reps : Workloads.rep list) =
  let first = List.hd reps in
  let rate, items = peak_rate reps in
  let setups = Array.concat (List.map (fun (r : Workloads.rep) -> r.Workloads.setup_items) reps) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  let attempted = sum (fun r -> r.Workloads.attempted) in
  let failed = sum (fun r -> r.Workloads.failed) + failed_checks in
  [
    metric ~timed:true "peak_proc_ticks_per_s" "1/s" ~note:(fast_note "items" items) rate;
    metric ~timed:true "setup_s" "s"
      ~note:(fast_note "set-up readings" (Array.length setups))
      (Stats.quantile setups fast_q);
    metric "peak_heap_mb" "MB" ~note:"top heap after the first rep"
      (float_of_int first.Workloads.top_heap_words *. word_bytes /. 1048576.0);
    metric "alloc_words_per_proc_tick" "words" ~note:"first rep"
      (first.Workloads.gc.Workloads.alloc_words /. float_of_int first.Workloads.proc_ticks);
    metric "pass_frac" "ratio"
      ~note:(Printf.sprintf "%d of %d items pass" (attempted - failed) attempted)
      (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
  ]

(* Averages over the timed reps, printed but not gated: on the host the
   README describes they move with the share of the run the host spent
   slow. Item percentiles are taken within each rep and averaged. *)
let averages (reps : Workloads.rep list) =
  let first = List.hd reps in
  let timed = timed_reps reps in
  let per_rep f = Stats.mean (Array.of_list (List.map f timed)) in
  let note = Printf.sprintf "mean of %d timed reps" (List.length timed) in
  let wall_s = per_rep (fun r -> r.Workloads.wall_s)
  and setup_s = per_rep (fun r -> r.Workloads.setup_s) in
  [
    metric ~timed:true "wall_s" "s" ~note wall_s;
    metric ~timed:true "proc_ticks_per_s" "1/s" ~note:"proc-ticks per rep / (wall_s - setup)"
      (float_of_int first.Workloads.proc_ticks /. (wall_s -. setup_s));
    metric ~timed:true "item_p01_ms" "ms" ~note:"1st percentile of all reps' items"
      (1000.0 *. Stats.quantile (pooled reps (fun _ _ x -> x)) fast_q);
    metric ~timed:true "item_p50_ms" "ms" ~note:("per-rep median, " ^ note)
      (1000.0 *. per_rep (fun r -> Stats.quantile r.Workloads.items 0.5));
    metric ~timed:true "item_p90_ms" "ms" ~note:("per-rep p90, " ^ note)
      (1000.0 *. per_rep (fun r -> Stats.quantile r.Workloads.items 0.9));
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, from one (untraced, traced) pair. *)

type pair = {
  p_plain : Workloads.rep;
  p_traced : Workloads.trep;
  tr : Layered.t;
  campaign_self_s : float;
}

let traced_pair name ~seed =
  let tr = Layered.create () in
  match name with
  | "fuzz" ->
      let outcomes = ref [] and campaign_self_s = ref 0.0 in
      let p_plain =
        Workloads.Fuzz.plain
          ~on_run:(fun _ o -> outcomes := o :: !outcomes)
          ~campaign_self:(fun s -> campaign_self_s := s)
          ()
      in
      let reference = Array.of_list (List.rev !outcomes) in
      Gc.full_major ();
      let p_traced = Workloads.Fuzz.traced tr ~reference in
      { p_plain; p_traced; tr; campaign_self_s = !campaign_self_s }
  | _ ->
      let p_plain = plain name ~seed in
      Gc.full_major ();
      let p_traced =
        match name with
        | "mc" -> Workloads.Mc_work.traced tr ~seed
        | "ring" -> Workloads.Ring.traced tr ~seed
        | _ -> Workloads.Extract.traced tr ~seed
      in
      { p_plain; p_traced; tr; campaign_self_s = 0.0 }

let per_layer pr =
  let tr = pr.tr and t = pr.p_traced and g = pr.p_plain.Workloads.gc in
  let p = tr.Layered.prof in
  let incl l = Prof.incl_s p l and self l = Prof.self_s p l in
  let per_tick x = float_of_int x /. float_of_int (max 1 t.Workloads.t_proc_ticks) in
  let count name = Option.value ~default:0.0 (List.assoc_opt name t.Workloads.counts) in
  let guards = tr.Layered.guards.(Layered.dining) in
  [
    metric ~timed:true "dining.monitor.check_s" "s" (incl Layered.monitor);
    metric "dining.monitor.alloc_words" "words" (Layered.words tr Layered.monitor);
    metric ~timed:true "dsim.engine.run_s" "s" (incl Layered.run);
    metric ~timed:true "dsim.engine.run_self_s" "s" (self Layered.run);
    metric "dsim.engine.run_alloc_words" "words" (Layered.words tr Layered.run);
    metric ~timed:true "dsim.engine.create_s" "s" (incl Layered.engine_create);
    metric "dsim.engine.create_alloc_words" "words" (Layered.words tr Layered.engine_create);
    metric ~timed:true "dsim.engine.deploy_s" "s" (incl Layered.deploy);
    metric "dsim.engine.deploy_alloc_words" "words" (Layered.words tr Layered.deploy);
    metric ~timed:true "dsim.engine.hooks_s" "s" (incl Layered.hooks);
    metric ~timed:true "dsim.trace.subscribers_s" "s" (incl Layered.subscribers);
    metric ~timed:true "dsim.adversary.self_s" "s" (self Layered.adversary);
    metric "dsim.adversary.queries_per_proc_tick" "1/proc-tick" (per_tick tr.Layered.queries);
    metric ~timed:true "dining.self_s" "s" (self Layered.dining);
    metric "dining.guard_hit_ratio" "ratio"
      (if guards = 0 then 0.0
       else float_of_int tr.Layered.bodies.(Layered.dining) /. float_of_int guards);
    metric ~timed:true "detectors.self_s" "s" (self Layered.detectors);
    metric ~timed:true "reduction.lemmas.hook_s" "s" (incl Layered.lemma_hooks);
    metric ~timed:true "reduction.lemmas.post_s" "s" (incl Layered.lemma_post);
    metric ~timed:true "detectors.properties.check_s" "s" (incl Layered.properties);
    metric ~timed:true "check.campaign.self_s" "s" pr.campaign_self_s;
    metric ~timed:true "mc.explore.post_s" "s" (incl Layered.post);
    metric "mc.explore.schedules" "count" (count "mc.explore.schedules");
    metric "mc.explore.pruned" "count" (count "mc.explore.pruned");
    metric "dsim.engine.proc_ticks" "count" (float_of_int t.Workloads.t_proc_ticks);
    metric "dsim.engine.msgs_per_proc_tick" "1/proc-tick" (per_tick t.Workloads.msgs);
    metric "dsim.trace.events_per_proc_tick" "1/proc-tick" (per_tick t.Workloads.events);
    metric "gc.minor_collections" "count" (float_of_int g.Workloads.minor_collections);
    metric "gc.major_collections" "count" (float_of_int g.Workloads.major_collections);
    metric "gc.major_words" "words" g.Workloads.major_words;
    metric "gc.promoted_words" "words" g.Workloads.promoted_words;
    metric ~timed:true "bench.tracing_overhead_frac" "ratio"
      ((t.Workloads.t_wall_s /. pr.p_plain.Workloads.wall_s) -. 1.0);
  ]

(* Over several (untraced, traced) pairs: the median of each timed
   metric, and the first pair's value of each exact one (later pairs start
   from a grown heap, which moves the collection counts). *)
let pair_metrics per_pair =
  match per_pair with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i m ->
          if not m.timed then { m with note = "first traced rep, exact" }
          else
            let values = Array.of_list (List.map (fun ms -> (List.nth ms i).value) per_pair) in
            {
              m with
              value = Stats.median values;
              note = Printf.sprintf "median of %d traced reps" (Array.length values);
            })
        first
