open Dsim

(* Whether the run of [c], steered by [drive] when given, fails [check]. *)
let fails ?drive ~registry ~check c =
  List.mem check (Runner.failed (Runner.judge (Runner.plan ?drive ~registry c)))

(* Candidate configs must stay well-formed after a coarse simplification:
   shrinking the topology can orphan crash/handicap pids, and shrinking the
   horizon can push crash times or the gst past the end of the run. *)
let sanitize (c : Config.t) =
  let n = Config.n_procs c in
  let crashes = List.filter (fun (p, t) -> p >= 0 && p < n && t < c.Config.horizon) c.Config.crashes in
  let handicap =
    match c.Config.handicap with
    | Some (slow, f) -> (
        match List.filter (fun p -> p >= 0 && p < n) slow with
        | [] -> None
        | slow -> Some (slow, f))
    | None -> None
  in
  let adversary =
    match c.Config.adversary with
    | Config.Partial a -> Config.Partial { a with gst = min a.gst c.Config.horizon }
    | Config.Bursty a -> Config.Bursty { a with gst = min a.gst c.Config.horizon }
    | a -> a
  in
  { c with Config.crashes; handicap; adversary }

(* Simplification candidates in decreasing coarseness: whole-dimension
   resets first (friendliest adversary, no crashes, smallest topology,
   half the horizon), then single-knob reductions. The greedy loop below
   restarts from the top after every accepted candidate, so the coarse
   jumps get retried as the config shrinks. *)
let candidates (c : Config.t) =
  let out = ref [] in
  let add c' =
    let c' = sanitize c' in
    if c' <> c && not (List.mem c' !out) then out := c' :: !out
  in
  if c.Config.topology <> Config.Pair then add { c with Config.topology = Config.Pair };
  if c.Config.adversary <> Config.Sync then add { c with Config.adversary = Config.Sync };
  if c.Config.crashes <> [] then add { c with Config.crashes = [] };
  if c.Config.handicap <> None then add { c with Config.handicap = None };
  if c.Config.horizon >= 1600 then add { c with Config.horizon = c.Config.horizon / 2 };
  (match c.Config.topology with
  | Config.Ring n when n > 3 -> add { c with Config.topology = Config.Ring (n - 1) }
  | Config.Clique n when n > 3 -> add { c with Config.topology = Config.Clique (n - 1) }
  | Config.Star n when n > 3 -> add { c with Config.topology = Config.Star (n - 1) }
  | Config.Path n when n > 3 -> add { c with Config.topology = Config.Path (n - 1) }
  | _ -> ());
  (match c.Config.adversary with
  | Config.Sync -> ()
  | Config.Async a ->
      if a.max_delay > 1 then
        add { c with Config.adversary = Config.Async { a with max_delay = a.max_delay / 2 } };
      if a.step_prob_pct < 100 then
        add { c with Config.adversary = Config.Async { a with step_prob_pct = 100 } }
  | Config.Partial a ->
      if a.gst > 0 then
        add { c with Config.adversary = Config.Partial { a with gst = a.gst / 2 } };
      if a.pre_max_delay > 1 then
        add
          {
            c with
            Config.adversary = Config.Partial { a with pre_max_delay = a.pre_max_delay / 2 };
          };
      if a.delta > 1 then
        add { c with Config.adversary = Config.Partial { a with delta = 1 } };
      if a.pre_step_prob_pct < 100 then
        add { c with Config.adversary = Config.Partial { a with pre_step_prob_pct = 100 } }
  | Config.Bursty a ->
      add
        {
          c with
          Config.adversary =
            Config.Partial
              {
                gst = a.gst;
                pre_max_delay = max 1 a.storm_delay;
                delta = a.delta;
                pre_step_prob_pct = 60;
              };
        };
      if a.gst > 0 then
        add { c with Config.adversary = Config.Bursty { a with gst = a.gst / 2 } };
      if a.storm_delay > 1 then
        add
          {
            c with
            Config.adversary = Config.Bursty { a with storm_delay = a.storm_delay / 2 };
          }
  | Config.Dls a ->
      if a.delta > 1 then
        add { c with Config.adversary = Config.Dls { a with delta = a.delta / 2 } };
      if a.phi > 1 then add { c with Config.adversary = Config.Dls { a with phi = 1 } });
  List.iteri
    (fun i _ ->
      add { c with Config.crashes = List.filteri (fun j _ -> j <> i) c.Config.crashes })
    c.Config.crashes;
  List.iteri
    (fun i (p, t) ->
      if t > 1 then
        add
          {
            c with
            Config.crashes =
              List.mapi (fun j e -> if j = i then (p, max 1 (t / 2)) else e) c.Config.crashes;
          })
    c.Config.crashes;
  if c.Config.eat_ticks > 1 then add { c with Config.eat_ticks = 1 };
  List.rev !out

(* Run budgets: at most 200 config candidates, then at most 150 replays
   of the decision trace. *)
let config_budget = 200
let decision_budget = 150

let config ~registry ~check c0 =
  let evals = ref 0 in
  let still_fails c =
    incr evals;
    fails ~registry ~check c
  in
  let rec improve c =
    let rec try_cands = function
      | [] -> c
      | cand :: rest ->
          if !evals >= config_budget then c
          else if still_fails cand then improve cand
          else try_cands rest
    in
    if !evals >= config_budget then c else try_cands (candidates c)
  in
  improve c0

let decisions ~registry ~check (c : Config.t) =
  let drive, recorded = Adversary.recorder () in
  ignore (Runner.judge (Runner.plan ~drive ~registry c));
  let d = recorded () in
  let len = Array.length d in
  if len = 0 then (0, [])
  else begin
    let evals = ref 0 in
    let still_fails overrides =
      incr evals;
      fails ~drive:(Adversary.replayer ~len ~overrides) ~registry ~check c
    in
    let kept = Array.make len true in
    let to_overrides () =
      let out = ref [] in
      for i = len - 1 downto 0 do
        if kept.(i) then out := (i, d.(i)) :: !out
      done;
      !out
    in
    if still_fails [] then (len, [])
    else begin
      (* ddmin-style: neutralise chunks of decisions (towards the
         friendliest choice) while the violation persists, halving the
         chunk size, under a run budget. *)
      let chunk = ref (max 1 (len / 2)) in
      let continue_ () = !evals < decision_budget && Array.exists Fun.id kept in
      while !chunk >= 1 && continue_ () do
        let pos = ref 0 in
        while !pos < len && continue_ () do
          let hi = min len (!pos + !chunk) in
          let any = ref false in
          for i = !pos to hi - 1 do
            if kept.(i) then any := true
          done;
          if !any then begin
            let saved = Array.sub kept !pos (hi - !pos) in
            for i = !pos to hi - 1 do
              kept.(i) <- false
            done;
            if not (still_fails (to_overrides ())) then Array.blit saved 0 kept !pos (hi - !pos)
          end;
          pos := !pos + !chunk
        done;
        chunk := if !chunk = 1 then 0 else !chunk / 2
      done;
      (len, to_overrides ())
    end
  end

let counterexample ~registry ~check c0 =
  let c = config ~registry ~check c0 in
  let len, overrides = decisions ~registry ~check c in
  let checks = Runner.judge (Runner.plan ~drive:(Adversary.replayer ~len ~overrides) ~registry c) in
  Repro.v ~config:c ~len ~overrides ~checks
