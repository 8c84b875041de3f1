(* Large-n stack-safety and delivery-structure equivalence.

   The engine's in-flight structure is a bucketed timing wheel; the
   previous tree-map-of-buckets implementation survives as the
   [`Reference] delivery mode. This suite is the proof the swap changed
   nothing: a same-tick flood far past the old recursion limit completes,
   randomized instances produce byte-identical traces under both modes
   (including past the wheel horizon, where the overflow map migrates),
   the incremental in-flight counters match the brute-force scan at every
   tick, and campaign reports stay byte-identical at any worker count. *)

open Dsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Flood stack safety *)

let test_flood_100k_stack_safe () =
  (* 3 x 10^5 packets ripening on the same tick form one delivery bucket.
     The old [deliver_bucket] recursed to the bucket tail before
     delivering, so this flood needed ~300k stack frames — overflow; the
     iterative delivery needs O(1). Messages address an unregistered tag,
     so they drain and drop at the first step of each destination. *)
  let n = 100_000 in
  let engine = Engine.create ~seed:1L ~retain_trace:false ~n ~adversary:(Adversary.synchronous ()) () in
  let flood = Engine.in_flight_counter engine ~tag:"flood" ~f:(fun _ -> true) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    for k = 1 to 3 do
      ctx.Context.send ~dst:((pid + k) mod n) ~tag:"flood" Msg.Unit_msg
    done
  done;
  check_int "all packets in flight" (3 * n) (Engine.in_flight_total engine);
  check_int "counter sees the flood" (3 * n) (flood ());
  Engine.run engine ~until:3;
  check_int "flood fully delivered" 0 (Engine.in_flight_total engine);
  check_int "flood fully drained" 0 (flood ());
  check_int "sends accounted" (3 * n) (Engine.sent_total engine)

(* ------------------------------------------------------------------ *)
(* Wheel vs reference delivery: byte-identical traces *)

(* Delays far beyond the 256-tick wheel horizon, so packets land in the
   overflow map and migrate into the wheel as the window reaches them —
   the one code path small-delay adversaries never touch. *)
let big_delay_adversary () =
  {
    Adversary.name = "big-delay";
    delay = (fun rng ~now:_ ~src:_ ~dst:_ -> Prng.int_in rng ~lo:1 ~hi:600);
    steps = (fun rng ~now:_ _ -> Prng.bool rng);
    fairness_bound = 8;
  }

(* Delays that outgrow the wheel in stages, with packets in flight at
   each growth: at most 2 ticks (the initial 4-slot wheel) until tick 100,
   at most 40 until tick 300, then up to 600, past the full 256-slot
   wheel into the overflow map. *)
let growing_delay_adversary () =
  {
    Adversary.name = "growing-delay";
    delay =
      (fun rng ~now ~src:_ ~dst:_ ->
        let hi = if now < 100 then 2 else if now < 300 then 40 else 600 in
        Prng.int_in rng ~lo:1 ~hi);
    steps = (fun rng ~now:_ _ -> Prng.bool rng);
    fairness_bound = 8;
  }

let build_instance ~delivery ~seed ~n ~adversary =
  let engine = Engine.create ~seed ~delivery ~n ~adversary () in
  let graph = Graphs.Conflict_graph.ring ~n in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"d" ~graph () in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  engine

let test_wheel_matches_reference () =
  (* Randomized small instances under four adversary families (bounded
     delays, partial synchrony, overflow-exercising large delays, and
     delays that grow the wheel in stages): the wheel and the reference
     map must produce byte-identical traces and identical message
     accounting. *)
  let adversaries =
    [
      ("async", fun () -> Adversary.async_uniform ());
      ("psync", fun () -> Adversary.partial_sync ~gst:120 ());
      ("big-delay", big_delay_adversary);
      ("growing-delay", growing_delay_adversary);
    ]
  in
  for case = 0 to 11 do
    let seed = Int64.of_int (1000 + (case * 77)) in
    let n = 3 + (case mod 5) in
    let name, adv = List.nth adversaries (case mod List.length adversaries) in
    let run delivery =
      let engine = build_instance ~delivery ~seed ~n ~adversary:(adv ()) in
      (* The first case of each adversary also crashes a process. *)
      if case < List.length adversaries then Engine.schedule_crash engine (n - 1) ~at:200;
      Engine.run engine ~until:900;
      ( Trace.to_csv (Engine.trace engine),
        Engine.sent_total engine,
        Engine.in_flight_total engine )
    in
    let csv_w, sent_w, fl_w = run `Wheel in
    let csv_r, sent_r, fl_r = run `Reference in
    Alcotest.(check string)
      (Printf.sprintf "case %d (%s, n=%d): traces byte-identical" case name n)
      csv_r csv_w;
    check_int (Printf.sprintf "case %d: same sends" case) sent_r sent_w;
    check_int (Printf.sprintf "case %d: same residue" case) fl_r fl_w
  done

let test_overflow_delivers_exactly_once () =
  (* Under >horizon delays every packet crosses the overflow map; nothing
     may be lost or duplicated by the migration. One round of sends from
     a live component, then run past the max delay. *)
  let n = 5 in
  let engine =
    Engine.create ~seed:9L ~n ~adversary:(big_delay_adversary ()) ()
  in
  let delivered = ref 0 in
  for pid = 0 to n - 1 do
    Engine.register engine pid
      (Component.make ~name:"probe"
         ~actions:[]
         ~on_receive:(fun ~src:_ _ -> incr delivered)
         ())
  done;
  let sends = 500 in
  let ctx = Engine.ctx engine 0 in
  for k = 1 to sends do
    ctx.Context.send ~dst:(k mod n) ~tag:"probe" Msg.Unit_msg
  done;
  Engine.run engine ~until:700;
  check_int "every overflow packet delivered exactly once" sends !delivered;
  check_int "nothing left in flight" 0 (Engine.in_flight_total engine)

(* ------------------------------------------------------------------ *)
(* Incremental counters vs brute-force scan *)

(* Process 0 is offered no step in [100, 250) (the backstop is pushed past
   the stall), so what is delivered to it waits in its live inbox until it
   crashes at 250 with that inbox full. *)
let stall_pid0 (base : Adversary.t) =
  {
    base with
    Adversary.name = base.Adversary.name ^ "+stall0";
    steps =
      (fun rng ~now pid ->
        let offered = base.Adversary.steps rng ~now pid in
        offered && not (pid = 0 && now >= 100 && now < 250));
    fairness_bound = 400;
  }

(* One [Int_msg] per step on "chat" to a random process, dead or alive;
   the payload carries the destination ([k mod n = dst]) so a filtered
   counter can select one process's packets. Nothing is sent to process 0
   from tick 200 on, so by 249 its packets all sit in its stalled inbox. *)
let chatter engine pid ~n =
  let ctx = Engine.ctx engine pid in
  let rng = ctx.Context.rng in
  Component.make ~name:"chat"
    ~actions:
      [
        Component.action "send"
          ~guard:(fun () -> true)
          ~body:(fun () ->
            let dst =
              if ctx.Context.now () < 200 then Prng.int rng ~bound:n
              else Prng.int_in rng ~lo:1 ~hi:(n - 1)
            in
            ctx.Context.send ~dst ~tag:"chat" (Msg.Int_msg ((n * Prng.int rng ~bound:1000) + dst)));
      ]
    ()

let test_in_flight_counter_matches_scan () =
  (* The filtered counters, catch-all ones included, must agree with the
     full-state scan at every observation point the monitors use (end of
     tick), across sends, deliveries, packets waiting in a live inbox,
     inbox drains, mid-run crashes (inbox discard), deliveries to dead
     destinations and delays past the 256-tick wheel horizon, under both
     delivery modes. Counters are registered before traffic, on a tag that
     never sends, and mid-run while matching packets are pending (seeded
     by the scan). *)
  let n = 6 in
  let to_pid p = function Msg.Int_msg k -> k mod n = p | _ -> false in
  let cases =
    [
      ("async", `Wheel, fun () -> Adversary.async_uniform ());
      ("async", `Reference, fun () -> Adversary.async_uniform ());
      ("big-delay", `Wheel, big_delay_adversary);
      ("big-delay", `Reference, big_delay_adversary);
    ]
  in
  List.iter
    (fun (adv_name, delivery, adv) ->
      let label =
        Printf.sprintf "%s/%s" adv_name
          (match delivery with `Wheel -> "wheel" | `Reference -> "reference")
      in
      let engine = build_instance ~delivery ~seed:77L ~n ~adversary:(stall_pid0 (adv ())) in
      for pid = 0 to n - 1 do
        Engine.register engine pid (chatter engine pid ~n)
      done;
      Engine.schedule_crash engine 2 ~at:150;
      Engine.schedule_crash engine 0 ~at:250;
      Engine.schedule_crash engine 4 ~at:300;
      (* every (tag, filter, counter) registered so far *)
      let counters = ref [] in
      let register tag f =
        let c = Engine.in_flight_counter engine ~tag ~f in
        counters := (tag, f, c) :: !counters;
        c
      in
      let to0 = register "chat" (to_pid 0) and to4 = register "chat" (to_pid 4) in
      let chat = register "chat" (fun _ -> true) and d = register "d" (fun _ -> true) in
      List.iter
        (fun (tag, f) -> ignore (register tag f : unit -> int))
        [ ("d", fun _ -> false); ("quiet", fun _ -> true) ];
      let checked = ref 0 and inbox_seen = ref false and to0_stalled = ref 0 in
      let to0_after_crash = ref (-1) and to4_dead = ref false and seeded = ref 0 in
      Engine.on_tick engine (fun () ->
          let now = Engine.now engine in
          if now = 120 then begin
            (* process 0 has been stalled since 100: its inbox is not empty *)
            let to01 m = to_pid 0 m || to_pid 1 m in
            seeded := Engine.in_flight_scan engine ~tag:"chat" ~f:to01;
            ignore (register "chat" to01 : unit -> int)
          end;
          List.iter
            (fun (tag, f, c) ->
              let fast = c () and slow = Engine.in_flight_scan engine ~tag ~f in
              if fast <> slow then
                Alcotest.failf "%s t=%d tag=%s: filtered counter %d <> scan %d" label now tag fast
                  slow;
              incr checked)
            !counters;
          (* counters include inboxes, in_flight_total does not *)
          if chat () + d () > Engine.in_flight_total engine then inbox_seen := true;
          if now = 249 then to0_stalled := to0 ();
          if now = 250 then to0_after_crash := to0 ();
          if now > 300 && to4 () > 0 then to4_dead := true);
      Engine.run engine ~until:900;
      (* 6 counters every tick, plus the one registered at 120 *)
      check_int (label ^ ": cross-checked every tick") ((6 * 900) + (900 - 119)) !checked;
      check (label ^ ": packets waited in a live inbox") true !inbox_seen;
      check (label ^ ": mid-run counter seeded from pending packets") true (!seeded > 0);
      check (label ^ ": packets sent to a dead destination") true !to4_dead;
      if String.equal adv_name "async" then begin
        (* Delays are at most 8 and nothing goes to process 0 after tick
           200: at 249 its packets are all in its inbox, and the crash
           discards them. *)
        check (label ^ ": stalled inbox holds packets at the crash") true (!to0_stalled > 0);
        check_int (label ^ ": crash discards the inbox") 0 !to0_after_crash
      end;
      check (label ^ ": registration is not a send") false
        (List.mem_assoc "quiet" (Engine.sent_by_tag engine));
      check_int (label ^ ": a tag that never sent counts zero") 0
        (Engine.in_flight_counter engine ~tag:"never-sent" ~f:(fun _ -> true) ()))
    cases

(* A process crashes itself from [on_receive] with more messages pending
   in the same step. Process 0 is stalled in [100, 250) and nothing is
   sent to it from tick 200 on, so its inbox is full when it next steps;
   the first message it routes at or after 250 crashes it. The step has
   already consumed the whole inbox: the rest are not routed, and the
   counters match the scan at every tick under both delivery modes, whose
   traces (one note per routed message) are identical. *)
let test_crash_inside_step () =
  let n = 5 in
  let to0 = function Msg.Int_msg k -> k mod n = 0 | _ -> false in
  let run delivery =
    let engine =
      Engine.create ~seed:21L ~delivery ~n ~adversary:(stall_pid0 (Adversary.async_uniform ())) ()
    in
    let routed_dead = ref 0 and routed_late = ref 0 in
    for pid = 0 to n - 1 do
      let ctx = Engine.ctx engine pid in
      let on_receive ~src payload =
        if not (Engine.is_live engine pid) then incr routed_dead;
        let info = match payload with Msg.Int_msg k -> string_of_int k | _ -> "?" in
        ctx.Context.log (Trace.Note { pid; label = "recv-from-" ^ string_of_int src; info });
        if pid = 0 && ctx.Context.now () >= 250 then begin
          incr routed_late;
          Engine.crash_now engine 0
        end
      in
      let chat = chatter engine pid ~n in
      Engine.register engine pid
        (Component.make ~name:"chat" ~actions:(Array.to_list chat.Component.actions) ~on_receive ())
    done;
    let all = Engine.in_flight_counter engine ~tag:"chat" ~f:(fun _ -> true) in
    let pending0 = Engine.in_flight_counter engine ~tag:"chat" ~f:to0 in
    let at_249 = ref 0 in
    Engine.on_tick engine (fun () ->
        let now = Engine.now engine in
        List.iter
          (fun (f, counter) ->
            let fast = counter () and slow = Engine.in_flight_scan engine ~tag:"chat" ~f in
            if fast <> slow then Alcotest.failf "t=%d: counter %d <> scan %d" now fast slow)
          [ ((fun _ -> true), all); (to0, pending0) ];
        if now = 249 then at_249 := pending0 ());
    Engine.run engine ~until:600;
    check "p0 crashed itself" false (Engine.is_live engine 0);
    check "p0 had more messages pending than it routed" true (!at_249 >= 2);
    check_int "p0 routed one message after 250" 1 !routed_late;
    check_int "nothing routed to a crashed process" 0 !routed_dead;
    check_int "p0's consumed inbox left the counters" 0 (pending0 ());
    (Trace.to_csv (Engine.trace engine), Engine.sent_total engine, Engine.in_flight_total engine)
  in
  let csv_w, sent_w, fl_w = run `Wheel in
  let csv_r, sent_r, fl_r = run `Reference in
  Alcotest.(check string) "traces byte-identical" csv_r csv_w;
  check_int "same sends" sent_r sent_w;
  check_int "same residue" fl_r fl_w

(* ------------------------------------------------------------------ *)
(* Quadratic-registration fix: many components per process *)

let test_many_components_registration () =
  (* [register] must stay linear in the number of layers (Vec append, not
     list-concat): 400 single-action components on one process, then one
     step exercises the rebuilt flat-action table and routing. *)
  let engine = Engine.create ~seed:3L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let fired = Array.make 400 false in
  let ctx = Engine.ctx engine 0 in
  for i = 0 to 399 do
    Engine.register engine 0
      (Component.make
         ~name:(Printf.sprintf "layer%d" i)
         ~actions:
           [
             Component.action "fire"
               ~guard:(fun () -> not fired.(i))
               ~body:(fun () -> fired.(i) <- true);
           ]
         ~on_receive:(fun ~src:_ _ -> ())
         ())
  done;
  ignore ctx;
  Engine.run engine ~until:400;
  check "every layer's action eventually ran (weak fairness over 400 layers)" true
    (Array.for_all Fun.id fired)

(* ------------------------------------------------------------------ *)
(* Campaign jobs-invariance over the new engine core *)

let test_campaign_jobs_invariance_post_wheel () =
  (* End-to-end re-check of the parallel-determinism contract on top of
     the timing-wheel engine: canonical campaign summaries are
     byte-identical at -j 1/2/7. *)
  let summary jobs =
    let result =
      Check.Campaign.run ~runs:20 ~max_horizon:2500 ~jobs
        ~registry:Check.Runner.default_registry ~root_seed:0x5CA1EL ()
    in
    Obs.Json.to_string_pretty
      (Obs.Report.strip_wall_clock (Check.Campaign.summary ~cmd:"fuzz" result))
  in
  let reference = summary 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        reference (summary jobs))
    [ 2; 7 ]

let () =
  Alcotest.run "scale"
    [
      ( "engine",
        [
          Alcotest.test_case "100k-process same-tick flood is stack-safe" `Quick
            test_flood_100k_stack_safe;
          Alcotest.test_case "wheel and reference delivery traces identical" `Quick
            test_wheel_matches_reference;
          Alcotest.test_case "overflow packets delivered exactly once" `Quick
            test_overflow_delivers_exactly_once;
          Alcotest.test_case "in-flight counters match brute-force scan" `Quick
            test_in_flight_counter_matches_scan;
          Alcotest.test_case "a crash from on_receive ends the step" `Quick
            test_crash_inside_step;
          Alcotest.test_case "400-layer registration and fairness" `Quick
            test_many_components_registration;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs-invariance at -j 1/2/7" `Quick
            test_campaign_jobs_invariance_post_wheel;
        ] );
    ]
