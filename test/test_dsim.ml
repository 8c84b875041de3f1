(* Unit tests for the simulation substrate. *)

open Dsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let da = List.init 16 (fun _ -> Prng.next_int64 a) in
  let db = List.init 16 (fun _ -> Prng.next_int64 b) in
  check "different seeds differ" true (da <> db)

let test_prng_bounds () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let x = Prng.int rng ~bound:17 in
    check "in [0,17)" true (x >= 0 && x < 17);
    let y = Prng.int_in rng ~lo:5 ~hi:9 in
    check "in [5,9]" true (y >= 5 && y <= 9);
    let f = Prng.float rng in
    check "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_chance_extremes () =
  let rng = Prng.create 3L in
  for _ = 1 to 50 do
    check "p=0 never" false (Prng.chance rng ~p:0.0);
    check "p=1 always" true (Prng.chance rng ~p:1.0)
  done

let test_prng_derive_pure_by_index () =
  (* Two derivations of the same (seed, index) give the same stream,
     regardless of what else was drawn in between. *)
  let a = Prng.derive 42L ~index:5 in
  ignore (Prng.next_int64 (Prng.derive 42L ~index:0));
  let b = Prng.derive 42L ~index:5 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "pure in (seed, index)" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.derive 42L ~index:6 in
  check "adjacent indices differ" true (Prng.next_int64 a <> Prng.next_int64 c);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Prng.derive: index must be non-negative") (fun () ->
      ignore (Prng.derive 42L ~index:(-1)))

let test_prng_derive_matches_split_chain () =
  (* A split chain with no interleaved draws is exactly the by-index
     derivation. The campaign used to split sequentially; this equivalence
     is what kept every recorded corpus artifact and pinned digest valid
     when it switched to [derive]. *)
  let parent = Prng.create 0xF5EEDL in
  let children = List.init 8 (fun _ -> Prng.split parent) in
  List.iteri
    (fun i child ->
      let derived = Prng.derive 0xF5EEDL ~index:i in
      for _ = 1 to 4 do
        Alcotest.(check int64) "same stream" (Prng.next_int64 child) (Prng.next_int64 derived)
      done)
    children

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11L in
  let a = Array.init 20 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_roundtrip () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.add_last v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 37 (Vec.get v 37);
  Vec.set v 37 (-1);
  check_int "set" (-1) (Vec.get v 37);
  Vec.remove_last v;
  check_int "remove_last" 99 (Vec.length v);
  Alcotest.(check int) "to_list length" 99 (List.length (Vec.to_list v));
  Vec.clear v;
  check_int "clear" 0 (Vec.length v)

let test_vec_errors () =
  let v = Vec.create () in
  Alcotest.check_raises "get empty" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 0));
  Alcotest.check_raises "remove empty" (Invalid_argument "Vec.remove_last: empty") (fun () ->
      Vec.remove_last v)

(* ------------------------------------------------------------------ *)
(* Engine: delivery, fairness, crashes *)

type Msg.t += Ping of int | Pong of int

let test_engine_ping_pong () =
  let engine = Engine.create ~seed:5L ~n:2 ~adversary:(Adversary.async_uniform ()) () in
  let received_at_1 = ref [] in
  let pongs_at_0 = ref [] in
  let ctx0 = Engine.ctx engine 0 and ctx1 = Engine.ctx engine 1 in
  let sender =
    let sent = ref 0 in
    Component.make ~name:"app"
      ~actions:
        [
          Component.action "send"
            ~guard:(fun () -> !sent < 10)
            ~body:(fun () ->
              incr sent;
              ctx0.Context.send ~dst:1 ~tag:"app" (Ping !sent));
        ]
      ~on_receive:(fun ~src:_ -> function
        | Pong k -> pongs_at_0 := k :: !pongs_at_0
        | _ -> ())
      ()
  in
  let echo =
    Component.make ~name:"app"
      ~on_receive:(fun ~src -> function
        | Ping k ->
            received_at_1 := k :: !received_at_1;
            ctx1.Context.send ~dst:src ~tag:"app" (Pong k)
        | _ -> ())
      ()
  in
  Engine.register engine 0 sender;
  Engine.register engine 1 echo;
  Engine.run engine ~until:500;
  check_int "all pings delivered" 10 (List.length !received_at_1);
  check_int "all pongs delivered" 10 (List.length !pongs_at_0);
  let sorted = List.sort compare !received_at_1 in
  Alcotest.(check (list int)) "exactly once, no corruption" (List.init 10 (fun i -> i + 1)) sorted

let test_engine_determinism () =
  let run () =
    let engine = Engine.create ~seed:99L ~n:3 ~adversary:(Adversary.async_uniform ()) () in
    let log = ref [] in
    for pid = 0 to 2 do
      let ctx = Engine.ctx engine pid in
      let comp =
        Component.make ~name:"app"
          ~actions:
            [
              Component.action "gossip"
                ~guard:(fun () -> ctx.Context.now () mod 7 = pid)
                ~body:(fun () ->
                  ctx.Context.send ~dst:((pid + 1) mod 3) ~tag:"app"
                    (Ping (ctx.Context.now ())));
            ]
          ~on_receive:(fun ~src -> function
            | Ping k -> log := (pid, src, k) :: !log
            | _ -> ())
          ()
      in
      Engine.register engine pid comp
    done;
    Engine.run engine ~until:300;
    !log
  in
  check "same seed, same run" true (run () = run ())

let test_engine_weak_fairness () =
  (* A continuously enabled action runs infinitely often even under a
     step-skipping adversary, thanks to the fairness bound. *)
  let engine =
    Engine.create ~seed:2L ~n:1
      ~adversary:(Adversary.async_uniform ~step_prob:0.05 ~fairness_bound:10 ())
      ()
  in
  let fired = ref 0 in
  let comp =
    Component.make ~name:"app"
      ~actions:
        [ Component.action "tick" ~guard:(fun () -> true) ~body:(fun () -> incr fired) ]
      ()
  in
  Engine.register engine 0 comp;
  Engine.run engine ~until:1000;
  check "fired at least horizon/bound times" true (!fired >= 100)

let test_engine_action_rotation () =
  (* Two always-enabled actions alternate: neither starves the other. *)
  let engine = Engine.create ~seed:2L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let a = ref 0 and b = ref 0 in
  let comp =
    Component.make ~name:"app"
      ~actions:
        [
          Component.action "a" ~guard:(fun () -> true) ~body:(fun () -> incr a);
          Component.action "b" ~guard:(fun () -> true) ~body:(fun () -> incr b);
        ]
      ()
  in
  Engine.register engine 0 comp;
  Engine.run engine ~until:100;
  check "a ran" true (!a >= 49);
  check "b ran" true (!b >= 49)

let test_engine_crash_stops_steps () =
  let engine = Engine.create ~seed:8L ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let steps = ref 0 in
  let ctx1 = Engine.ctx engine 1 in
  ignore ctx1;
  let comp =
    Component.make ~name:"app"
      ~actions:[ Component.action "t" ~guard:(fun () -> true) ~body:(fun () -> incr steps) ]
      ()
  in
  Engine.register engine 1 comp;
  Engine.schedule_crash engine 1 ~at:50;
  Engine.run engine ~until:200;
  check "no steps after crash" true (!steps <= 50);
  check "crashed set" true (Types.Pidset.mem 1 (Engine.crashed engine));
  check "live set" true (Types.Pidset.mem 0 (Engine.live_set engine));
  (* Crash is in the trace exactly once. *)
  let crashes =
    Trace.filter (Engine.trace engine) (fun e ->
        match e.Trace.ev with Trace.Crash { pid } -> pid = 1 | _ -> false)
  in
  check_int "one crash event" 1 (List.length crashes)

let test_engine_messages_to_crashed_dropped () =
  let engine = Engine.create ~seed:8L ~n:2 ~adversary:(Adversary.async_uniform ()) () in
  let got = ref 0 in
  let ctx0 = Engine.ctx engine 0 in
  let sender =
    Component.make ~name:"app"
      ~actions:
        [
          Component.action "spam"
            ~guard:(fun () -> true)
            ~body:(fun () -> ctx0.Context.send ~dst:1 ~tag:"app" (Ping 0));
        ]
      ()
  in
  let sink =
    Component.make ~name:"app"
      ~on_receive:(fun ~src:_ _ -> incr got)
      ()
  in
  Engine.register engine 0 sender;
  Engine.register engine 1 sink;
  let app_pending = Engine.in_flight_counter engine ~tag:"app" ~f:(fun _ -> true) in
  Engine.schedule_crash engine 1 ~at:10;
  Engine.run engine ~until:100;
  (* Only messages delivered before the crash arrive; in-flight count for
     the tag eventually drains to 0 despite the crash. *)
  check "some early deliveries possible" true (!got <= 10);
  Engine.run engine ~until:300;
  check "sender keeps spamming but inbox stays empty" true (app_pending () >= 0)

let test_engine_hook_order () =
  (* on_tick hooks fire in registration order every tick (they are held in
     a Vec; the old list-append representation was quadratic to build but
     had the same order — this pins the order against refactors). *)
  let engine = Engine.create ~seed:1L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let seen = ref [] in
  for i = 0 to 63 do
    Engine.on_tick engine (fun () -> seen := i :: !seen)
  done;
  Engine.step engine;
  Alcotest.(check (list int)) "hooks run in registration order" (List.init 64 Fun.id)
    (List.rev !seen)

let test_engine_reflatten_resets_rotation () =
  (* Registering a component mid-run rebuilds the flat action table; the
     weak-fairness cursor must re-anchor at the head of the new layout, not
     keep pointing wherever the old rotation stopped. *)
  let engine = Engine.create ~seed:3L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let fired = ref [] in
  let act name =
    Component.action name ~guard:(fun () -> true) ~body:(fun () -> fired := name :: !fired)
  in
  Engine.register engine 0 (Component.make ~name:"a" ~actions:[ act "a0"; act "a1" ] ());
  Engine.step engine;
  (* a0 fired; the rotation now points at a1. *)
  Engine.register engine 0 (Component.make ~name:"b" ~actions:[ act "b0"; act "b1" ] ());
  Engine.step engine;
  Alcotest.(check (list string)) "rotation re-anchored at the new layout's head"
    [ "a0"; "a0" ] (List.rev !fired)

let test_engine_delivery_exactly_once_under_backlog () =
  (* Wide delay spread ⇒ many distinct in-flight buckets; the min_binding
     peeling in deliver_ripe must still deliver every packet exactly once
     and drain the map completely. *)
  let n = 4 in
  let engine =
    Engine.create ~seed:11L ~n
      ~adversary:(Adversary.async_uniform ~max_delay:80 ~fairness_bound:20 ())
      ()
  in
  let got = ref 0 in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp =
      Component.make ~name:"app"
        ~actions:
          [
            Component.action "spam"
              ~guard:(fun () -> Engine.now engine < 200)
              ~body:(fun () -> ctx.Context.send ~dst:((pid + 1) mod n) ~tag:"app" (Ping 0));
          ]
        ~on_receive:(fun ~src:_ _ -> incr got)
        ()
    in
    Engine.register engine pid comp
  done;
  Engine.run engine ~until:400;
  check_int "every sent packet delivered exactly once" (Engine.sent_total engine) !got;
  check_int "in-flight map fully drained" 0 (Engine.in_flight_total engine)

let test_engine_duplicate_component_rejected () =
  let engine = Engine.create ~seed:1L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let c () = Component.make ~name:"dup" () in
  Engine.register engine 0 (c ());
  (try
     Engine.register engine 0 (c ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_engine_crash_bad_pid_rejected () =
  let engine = Engine.create ~seed:1L ~n:2 ~adversary:(Adversary.synchronous ()) () in
  List.iter
    (fun pid ->
      match Engine.schedule_crash engine pid ~at:10 with
      | () -> Alcotest.failf "crash of p%d accepted on 2 processes" pid
      | exception Invalid_argument msg ->
          Alcotest.(check string) "named error" "Engine.schedule_crash: bad pid" msg)
    [ -1; 2; 9 ];
  Engine.run engine ~until:20;
  check_int "no process crashed" 2 (Engine.live_count engine)

(* A message header packs source, destination and tag id into 21 bits
   each, so an engine past 2^21 processes is refused before it allocates
   anything. *)
let test_engine_size_rejected () =
  List.iter
    (fun n ->
      match Engine.create ~n ~adversary:(Adversary.synchronous ()) () with
      | _ -> Alcotest.failf "n = %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; (1 lsl 21) + 1; max_int ]

let test_engine_run_while () =
  let engine = Engine.create ~seed:1L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  Engine.run_while engine ~max:1000 (fun () -> Engine.now engine < 123);
  check_int "stopped at predicate" 123 (Engine.now engine)

let test_engine_send_counters () =
  let engine = Engine.create ~seed:3L ~n:2 ~adversary:(Adversary.synchronous ()) () in
  let ctx0 = Engine.ctx engine 0 in
  let sender =
    Component.make ~name:"a"
      ~actions:
        [
          Component.action "s"
            ~guard:(fun () -> ctx0.Context.now () <= 10)
            ~body:(fun () ->
              ctx0.Context.send ~dst:1 ~tag:"a" (Ping 0);
              ctx0.Context.send ~dst:1 ~tag:"b" (Ping 0));
        ]
      ()
  in
  Engine.register engine 0 sender;
  Engine.run engine ~until:50;
  check_int "total" 20 (Engine.sent_total engine);
  check_int "per tag a" 10 (Engine.sent_with_tag engine ~tag:"a");
  check_int "per tag b" 10 (Engine.sent_with_tag engine ~tag:"b");
  check_int "unknown tag" 0 (Engine.sent_with_tag engine ~tag:"zzz")

let test_engine_inbox_drains_under_load () =
  (* Chatty senders must not grow inboxes without bound: a step consumes
     every pending packet (regression for a systemic livelock where
     heartbeat + retry traffic outpaced one-packet-per-step draining). *)
  let engine = Engine.create ~seed:4L ~n:3 ~adversary:(Adversary.synchronous ()) () in
  for pid = 0 to 2 do
    let ctx = Engine.ctx engine pid in
    let spam =
      Component.make ~name:"spam"
        ~actions:
          [
            Component.action "s"
              ~guard:(fun () -> true)
              ~body:(fun () ->
                ctx.Context.send ~dst:((pid + 1) mod 3) ~tag:"spam" (Ping 0);
                ctx.Context.send ~dst:((pid + 2) mod 3) ~tag:"spam" (Ping 0));
          ]
        ()
    in
    Engine.register engine pid spam
  done;
  let spam_pending = Engine.in_flight_counter engine ~tag:"spam" ~f:(fun _ -> true) in
  Engine.run engine ~until:2000;
  (* 6 sends per tick, delay 1: only the last tick's packets are pending. *)
  check "bounded backlog" true (spam_pending () <= 12)

(* ------------------------------------------------------------------ *)
(* Trace *)

(* Diner [pid]'s phase segments [(a, b, phase)] of instance "i", from the
   phase index. *)
let segments tr ~pid ~horizon =
  let acc = ref [] in
  Dining.Monitor.Index.iter_segments (Dining.Monitor.Index.build tr ~instance:"i") ~pid ~horizon
    (fun a b ph -> acc := (a, b, ph) :: !acc);
  List.rev !acc

let eating_intervals tr ~pid ~horizon =
  List.filter_map
    (fun (a, b, ph) -> if Types.phase_equal ph Types.Eating then Some (a, b) else None)
    (segments tr ~pid ~horizon)

let test_trace_phase_timeline () =
  let tr = Trace.create () in
  let trans at from_ to_ =
    Trace.append tr ~at (Trace.Transition { instance = "i"; pid = 0; from_; to_ })
  in
  trans 10 Types.Thinking Types.Hungry;
  trans 20 Types.Hungry Types.Eating;
  trans 35 Types.Eating Types.Exiting;
  trans 36 Types.Exiting Types.Thinking;
  let tl = segments tr ~pid:0 ~horizon:50 in
  Alcotest.(check int) "five segments" 5 (List.length tl);
  Alcotest.(check (list string)) "segments cover [0, horizon)"
    [ "thinking[0,10)"; "hungry[10,20)"; "eating[20,35)"; "exiting[35,36)"; "thinking[36,50)" ]
    (List.map (fun (a, b, ph) -> Printf.sprintf "%s[%d,%d)" (Types.phase_to_string ph) a b) tl);
  let intervals = eating_intervals tr ~pid:0 ~horizon:50 in
  Alcotest.(check (list (pair int int))) "eating interval" [ (20, 35) ] intervals

let test_trace_open_eating_clipped_at_horizon () =
  let tr = Trace.create () in
  Trace.append tr ~at:5
    (Trace.Transition { instance = "i"; pid = 1; from_ = Types.Thinking; to_ = Types.Hungry });
  Trace.append tr ~at:9
    (Trace.Transition { instance = "i"; pid = 1; from_ = Types.Hungry; to_ = Types.Eating });
  let intervals = eating_intervals tr ~pid:1 ~horizon:100 in
  Alcotest.(check (list (pair int int))) "clipped" [ (9, 100) ] intervals

let test_trace_suspicion_history () =
  let tr = Trace.create () in
  Trace.append tr ~at:3 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:9 (Trace.Trust { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:15 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  let flips = Trace.suspicion_flips tr ~detector:"d" ~owner:0 ~target:1 in
  Alcotest.(check (list (pair int bool))) "flips" [ (3, true); (9, false); (15, true) ] flips;
  check "at t=5 suspected" true
    (Trace.suspected_at tr ~detector:"d" ~owner:0 ~target:1 ~at:5 ~initially:false);
  check "at t=10 trusted" false
    (Trace.suspected_at tr ~detector:"d" ~owner:0 ~target:1 ~at:10 ~initially:false);
  check "at t=0 initial" false
    (Trace.suspected_at tr ~detector:"d" ~owner:0 ~target:1 ~at:0 ~initially:false)

let test_trace_crash_times () =
  let tr = Trace.create () in
  Trace.append tr ~at:42 (Trace.Crash { pid = 3 });
  let m = Trace.crash_times tr in
  Alcotest.(check (option int)) "crash at 42" (Some 42) (Types.Pidmap.find_opt 3 m);
  Alcotest.(check (option int)) "no crash" None (Types.Pidmap.find_opt 0 m)

let test_adversary_handicap () =
  (* A handicapped process still makes progress (weak fairness), just more
     slowly than its peers. *)
  let adversary =
    Adversary.handicap ~slow:[ 1 ] ~factor:0.1 (Adversary.synchronous ())
  in
  let engine = Engine.create ~seed:3L ~n:2 ~adversary () in
  let steps = Array.make 2 0 in
  for pid = 0 to 1 do
    let comp =
      Component.make ~name:"app"
        ~actions:
          [
            Component.action "t"
              ~guard:(fun () -> true)
              ~body:(fun () -> steps.(pid) <- steps.(pid) + 1);
          ]
        ()
    in
    Engine.register engine pid comp
  done;
  Engine.run engine ~until:2000;
  check "slow process still runs" true (steps.(1) > 50);
  check "but much less than the fast one" true (steps.(1) * 3 < steps.(0))

let test_adversary_handicap_backstop () =
  (* With a factor close to 0 the chance-driven offers all but vanish, so
     progress of the slowed process rests on the stretched weak-fairness
     backstop: fairness_bound grows to ceil(base/factor) and the engine
     still forces a step whenever the process has been idle that long. *)
  let factor = 0.005 in
  let adversary = Adversary.handicap ~slow:[ 1 ] ~factor (Adversary.synchronous ()) in
  let stretched =
    int_of_float (ceil (float_of_int (Adversary.synchronous ()).Adversary.fairness_bound /. factor))
  in
  check "backstop bound is stretched, not dropped" true (stretched = 200);
  let horizon = 4000 in
  let engine = Engine.create ~seed:9L ~n:2 ~adversary () in
  let steps = Array.make 2 0 in
  for pid = 0 to 1 do
    let comp =
      Component.make ~name:"app"
        ~actions:
          [
            Component.action "t"
              ~guard:(fun () -> true)
              ~body:(fun () -> steps.(pid) <- steps.(pid) + 1);
          ]
        ()
    in
    Engine.register engine pid comp
  done;
  Engine.run engine ~until:horizon;
  (* The backstop alone guarantees about horizon/stretched forced steps. *)
  check "backstop still forces steps at factor near 0" true
    (steps.(1) >= (horizon / stretched) - 1);
  check "slowed process is heavily throttled" true (steps.(1) * 10 < steps.(0))

let test_trace_csv () =
  let tr = Trace.create () in
  Trace.append tr ~at:3
    (Trace.Transition { instance = "i"; pid = 0; from_ = Types.Thinking; to_ = Types.Hungry });
  Trace.append tr ~at:5 (Trace.Suspect { detector = "d"; owner = 0; target = 1 });
  Trace.append tr ~at:9 (Trace.Crash { pid = 1 });
  Trace.append tr ~at:11 (Trace.Note { pid = 0; label = "l"; info = "x" });
  let csv = Trace.to_csv tr in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 4 rows" 5 (List.length lines);
  Alcotest.(check string) "header" "at,kind,scope,actor,peer,detail" (List.hd lines);
  Alcotest.(check string) "transition row" "3,transition,i,0,,thinking->hungry"
    (List.nth lines 1);
  Alcotest.(check string) "suspect row" "5,suspect,d,0,1," (List.nth lines 2);
  Alcotest.(check string) "crash row" "9,crash,,1,," (List.nth lines 3)

(* Entries past the first 32-slot chunk read back in append order
   through every reader. *)
let test_trace_chunks () =
  let tr = Trace.create () in
  let len = 150 in
  for i = 0 to len - 1 do
    Trace.append tr ~at:i (Trace.Crash { pid = i })
  done;
  let ats l = List.map (fun (e : Trace.entry) -> e.Trace.at) l in
  check_int "length" len (Trace.length tr);
  Alcotest.(check (list int)) "entries" (List.init len Fun.id) (ats (Trace.entries tr));
  let seen = ref [] in
  Trace.iter tr (fun at _ -> seen := at :: !seen);
  Alcotest.(check (list int)) "iter" (List.init len Fun.id) (List.rev !seen);
  Alcotest.(check (list int))
    "filter" (List.init 5 (fun k -> 32 * k))
    (ats (Trace.filter tr (fun e -> e.Trace.at mod 32 = 0)));
  let rows = String.split_on_char '\n' (String.trim (Trace.to_csv tr)) in
  check_int "csv rows" (len + 1) (List.length rows);
  Alcotest.(check string) "last csv row" "149,crash,,149,," (List.nth rows len);
  let dumped = Format.asprintf "%a" (Trace.dump ~limit:100) tr in
  let lines = String.split_on_char '\n' (String.trim dumped) in
  check_int "dump lines" 101 (List.length lines);
  Alcotest.(check string) "dump tail" "... (50 more)" (List.nth lines 100)

(* [iter ~from] visits exactly the events from index [from] on, whether
   [from] falls inside a chunk, on a chunk's first slot, on the last
   event or past the end. *)
let test_trace_iter_from () =
  let tr = Trace.create () in
  let len = 100 in
  for i = 0 to len - 1 do
    Trace.append tr ~at:(10 * i) (Trace.Crash { pid = i })
  done;
  List.iter
    (fun from ->
      let seen = ref [] in
      Trace.iter ~from tr (fun at ev ->
          match ev with
          | Trace.Crash { pid } -> seen := (at, pid) :: !seen
          | _ -> Alcotest.fail "not a crash");
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "from %d" from)
        (List.init (max 0 (len - from)) (fun k -> (10 * (from + k), from + k)))
        (List.rev !seen))
    [ 0; 1; 31; 32; 33; 63; 64; 65; 99; 100; 150 ]

(* The crash, suspicion and note queries agree with filters over the
   entry list on a trace of 400 events, a dozen chunks: crashes (some
   repeated), flips of two detectors over three processes and notes of
   three labels, interleaved by a seeded draw. *)
let test_trace_queries_reference () =
  let tr = Trace.create () in
  let rng = Prng.create 0x7ACEL in
  let detectors = [| "a"; "b" |] and labels = [| "ping"; "ack"; "other" |] in
  for at = 0 to 399 do
    let pid = Prng.int rng ~bound:3 and peer = Prng.int rng ~bound:3 in
    let ev =
      match Prng.int rng ~bound:5 with
      | 0 -> Trace.Crash { pid }
      | 1 -> Trace.Suspect { detector = detectors.(Prng.int rng ~bound:2); owner = pid; target = peer }
      | 2 -> Trace.Trust { detector = detectors.(Prng.int rng ~bound:2); owner = pid; target = peer }
      | 3 ->
          Trace.Note
            { pid; label = labels.(Prng.int rng ~bound:3); info = string_of_int (Prng.int rng ~bound:4) }
      | _ -> Trace.Transition { instance = "i"; pid; from_ = Types.Thinking; to_ = Types.Hungry }
    in
    Trace.append tr ~at ev
  done;
  check "several chunks" true (Trace.length tr > 10 * 32);
  Alcotest.(check (list (pair int int)))
    "crash_times"
    (Types.Pidmap.bindings (Trace_reference.crash_times tr))
    (Types.Pidmap.bindings (Trace.crash_times tr));
  let pids = [ 0; 1; 2 ] in
  Array.iter
    (fun detector ->
      List.iter
        (fun owner ->
          List.iter
            (fun target ->
              Alcotest.(check (list (pair int bool)))
                (Printf.sprintf "flips %s p%d p%d" detector owner target)
                (Trace_reference.suspicion_flips tr ~detector ~owner ~target)
                (Trace.suspicion_flips tr ~detector ~owner ~target))
            pids)
        pids)
    detectors;
  let same name want got = check name true (want = got && want <> []) in
  same "notes" (Trace_reference.notes tr) (Trace.notes tr);
  List.iter
    (fun pid ->
      same (Printf.sprintf "notes p%d" pid) (Trace_reference.notes ~pid tr) (Trace.notes ~pid tr);
      Array.iter
        (fun label ->
          same
            (Printf.sprintf "notes p%d %s" pid label)
            (Trace_reference.notes ~pid ~label tr)
            (Trace.notes ~pid ~label tr))
        labels)
    pids;
  Array.iter
    (fun label ->
      same ("notes " ^ label) (Trace_reference.notes ~label tr) (Trace.notes ~label tr))
    labels

let test_trace_csv_escaping () =
  (* RFC 4180: fields containing commas, quotes, or line breaks must be
     quoted, with embedded quotes doubled. Regression for note payloads
     like grant reasons that quote peer state. *)
  let tr = Trace.create () in
  Trace.append tr ~at:1 (Trace.Note { pid = 0; label = "weird,label"; info = "say \", \nboth" });
  Trace.append tr ~at:2
    (Trace.Transition { instance = "inst\"q"; pid = 1; from_ = Types.Hungry; to_ = Types.Eating });
  let csv = Trace.to_csv tr in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "note row quotes label and info"
    "1,note,\"weird,label\",0,,\"say \"\", " (List.nth lines 1);
  Alcotest.(check string) "embedded newline continues the field" "both\"" (List.nth lines 2);
  Alcotest.(check string) "quoted scope with doubled quote"
    "2,transition,\"inst\"\"q\",1,,hungry->eating" (List.nth lines 3)

(* ------------------------------------------------------------------ *)
(* Conflict graphs *)

let test_graph_generators () =
  let module G = Graphs.Conflict_graph in
  check_int "ring edges" 5 (List.length (G.edges (G.ring ~n:5)));
  check_int "clique edges" 10 (List.length (G.edges (G.clique ~n:5)));
  check_int "star edges" 4 (List.length (G.edges (G.star ~n:5)));
  check_int "path edges" 4 (List.length (G.edges (G.path ~n:5)));
  check_int "grid 2x3 edges" 7 (List.length (G.edges (G.grid ~rows:2 ~cols:3)));
  check_int "pair" 1 (List.length (G.edges (G.pair ())));
  check "ring symmetric" true (G.are_neighbors (G.ring ~n:5) 0 4);
  check_int "star hub degree" 4 (G.degree (G.star ~n:5) 0);
  check_int "max degree" 4 (G.max_degree (G.star ~n:5))

let test_graph_rejects_garbage () =
  let module G = Graphs.Conflict_graph in
  (try
     ignore (G.of_edges ~n:3 [ (0, 0) ]);
     Alcotest.fail "self-loop accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (G.of_edges ~n:3 [ (0, 5) ]);
     Alcotest.fail "out of range accepted"
   with Invalid_argument _ -> ())

let test_graph_distance () =
  let module G = Graphs.Conflict_graph in
  let g = G.path ~n:5 in
  Alcotest.(check (option int)) "path ends" (Some 4) (G.distance g 0 4);
  Alcotest.(check (option int)) "self" (Some 0) (G.distance g 2 2);
  Alcotest.(check (option int)) "neighbors" (Some 1) (G.distance g 1 2);
  let disconnected = G.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.(check (option int)) "disconnected" None (G.distance disconnected 0 3);
  let ring = G.ring ~n:6 in
  Alcotest.(check (option int)) "ring shortcut" (Some 2) (G.distance ring 0 4)

(* ------------------------------------------------------------------ *)
(* Engine trace digest pin.

   A chatty two-process exchange with a mid-run crash, digested over the
   CSV trace rendering. The pin is the behavioural contract the hot-path
   allocation work (counted in test_alloc.ml) must preserve: removing
   per-tick allocations from [Engine.step]/[step_process] may not change a
   single PRNG draw, delivery order, or trace byte. *)

let test_engine_trace_digest_pinned () =
  let run () =
    let engine = Engine.create ~seed:0xD161757L ~n:3 ~adversary:(Adversary.async_uniform ()) () in
    let ctxs = Array.init 3 (Engine.ctx engine) in
    for pid = 0 to 2 do
      let sent = ref 0 in
      let comp =
        Component.make ~name:"app"
          ~actions:
            [
              Component.action "gossip"
                ~guard:(fun () -> !sent < 20)
                ~body:(fun () ->
                  incr sent;
                  let dst = (pid + 1) mod 3 in
                  ctxs.(pid).Context.send ~dst ~tag:"app" (Ping !sent);
                  ctxs.(pid).Context.log
                    (Trace.Note { pid; label = "sent"; info = string_of_int !sent }))
            ]
          ~on_receive:(fun ~src -> function
            | Ping k ->
                ctxs.(pid).Context.log
                  (Trace.Note { pid; label = "got"; info = Printf.sprintf "%d<-%d" k src })
            | _ -> ())
          ()
      in
      Engine.register engine pid comp
    done;
    Engine.schedule_crash engine 1 ~at:40;
    Engine.run engine ~until:200;
    Trace.to_csv (Engine.trace engine)
  in
  let a = run () in
  check "replay is bit-identical" true (a = run ());
  Alcotest.(check string)
    "pinned engine trace digest for seed 0xD161757" "6ea50c1608b4b92d51ff0745860a5b84"
    (Digest.to_hex (Digest.string a))

let test_graph_random_valid () =
  let module G = Graphs.Conflict_graph in
  let rng = Prng.create 13L in
  let g = G.random ~n:10 ~p:0.5 ~rng in
  List.iter
    (fun (a, b) ->
      check "no self loop" true (a <> b);
      check "symmetric" true (G.are_neighbors g a b && G.are_neighbors g b a))
    (G.edges g)

let () =
  Alcotest.run "dsim"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "derive is pure by index" `Quick test_prng_derive_pure_by_index;
          Alcotest.test_case "derive matches a pristine split chain" `Quick
            test_prng_derive_matches_split_chain;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "vec",
        [
          Alcotest.test_case "roundtrip" `Quick test_vec_roundtrip;
          Alcotest.test_case "errors" `Quick test_vec_errors;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ping-pong reliable exactly-once" `Quick test_engine_ping_pong;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "weak fairness" `Quick test_engine_weak_fairness;
          Alcotest.test_case "action rotation" `Quick test_engine_action_rotation;
          Alcotest.test_case "crash stops steps" `Quick test_engine_crash_stops_steps;
          Alcotest.test_case "messages to crashed dropped" `Quick
            test_engine_messages_to_crashed_dropped;
          Alcotest.test_case "hook order" `Quick test_engine_hook_order;
          Alcotest.test_case "reflatten resets the rotation" `Quick
            test_engine_reflatten_resets_rotation;
          Alcotest.test_case "exactly-once under delay backlog" `Quick
            test_engine_delivery_exactly_once_under_backlog;
          Alcotest.test_case "duplicate component rejected" `Quick
            test_engine_duplicate_component_rejected;
          Alcotest.test_case "crash of a bad pid rejected" `Quick
            test_engine_crash_bad_pid_rejected;
          Alcotest.test_case "n past 2^21 rejected" `Quick test_engine_size_rejected;
          Alcotest.test_case "run_while" `Quick test_engine_run_while;
          Alcotest.test_case "send counters" `Quick test_engine_send_counters;
          Alcotest.test_case "inbox drains under load" `Quick
            test_engine_inbox_drains_under_load;
          Alcotest.test_case "pinned trace digest (hot-path contract)" `Quick
            test_engine_trace_digest_pinned;
        ] );
      ( "trace",
        [
          Alcotest.test_case "phase timeline" `Quick test_trace_phase_timeline;
          Alcotest.test_case "open eating clipped" `Quick test_trace_open_eating_clipped_at_horizon;
          Alcotest.test_case "suspicion history" `Quick test_trace_suspicion_history;
          Alcotest.test_case "crash times" `Quick test_trace_crash_times;
          Alcotest.test_case "csv export" `Quick test_trace_csv;
          Alcotest.test_case "csv escaping" `Quick test_trace_csv_escaping;
          Alcotest.test_case "entries across chunks" `Quick test_trace_chunks;
          Alcotest.test_case "iter from any index" `Quick test_trace_iter_from;
          Alcotest.test_case "queries match the entry-list reference" `Quick
            test_trace_queries_reference;
          Alcotest.test_case "handicap adversary" `Quick test_adversary_handicap;
          Alcotest.test_case "handicap backstop at factor near 0" `Quick
            test_adversary_handicap_backstop;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "generators" `Quick test_graph_generators;
          Alcotest.test_case "rejects garbage" `Quick test_graph_rejects_garbage;
          Alcotest.test_case "distance" `Quick test_graph_distance;
          Alcotest.test_case "random valid" `Quick test_graph_random_valid;
        ] );
    ]
