type packet = {
  src : Types.pid;
  dst : Types.pid;
  tag : string;
  tag_id : int; (* interned index into the engine's tag tables *)
  payload : Msg.t;
}

(* In-flight delivery structure. The production representation is a
   bucketed timing wheel: [slots] holds one Vec per future tick in the
   window (t.clock, t.clock + wheel_size], indexed by [at land mask], so
   send and delivery are O(1) in the number of distinct delivery times.
   Deliveries beyond the horizon land in [overflow], an int map keyed on
   delivery tick whose minimum bucket migrates into the wheel the tick it
   enters the window (exactly one bucket can qualify per tick, because
   buckets hold distinct ticks and the window advances one tick at a
   time). The wheel holds only future ticks, so a slot is always empty
   when its tick's packets start arriving.

   [Refmap] is the previous tree-map-of-buckets representation, kept as a
   reference implementation: O(log buckets) per send/delivery, but simple
   enough to be obviously correct. The equivalence property test in
   test/test_scale.ml runs randomized instances under both and demands
   byte-identical traces. *)
type wheel = {
  slots : packet Vec.t array; (* length is a power of two *)
  mask : int; (* Array.length slots - 1 *)
  mutable overflow : packet Vec.t Types.Pidmap.t;
}

type refmap = { mutable buckets : packet Vec.t Types.Pidmap.t }

type delivery = Wheel of wheel | Refmap of refmap

(* A filtered in-flight counter: the undelivered packets on one tag whose
   payload satisfies [pred]. *)
type watch = { pred : Msg.t -> bool; mutable matching : int }

type proc = {
  pid : Types.pid;
  mutable alive : bool;
  mutable crash_at : Types.time option;
  components : Component.t Vec.t; (* registration order *)
  mutable flat_actions : (Component.t * Component.action) array;
  mutable cursor : int; (* weak-fairness rotation over flat_actions *)
  inbox : packet Vec.t;
  mutable last_step : Types.time;
  mutable batch : packet array;
      (* step_process drain scratch, grown geometrically and reused across
         steps; only the first [Vec.length inbox] slots are meaningful *)
}

and t = {
  n_procs : int;
  procs : proc array;
  adversary : Adversary.t;
  prng : Prng.t;
  mutable clock : Types.time;
  delivery : delivery;
  mutable flight_count : int;
  mutable live_count : int;
  tr : Trace.t;
  hooks : (unit -> unit) Vec.t; (* registration order *)
  mutable sent_total : int;
  tag_ids : (string, int) Hashtbl.t; (* tag -> interned id *)
  mutable tag_names : string array; (* id -> tag; first tag_count slots live *)
  mutable tag_count : int;
  mutable sent_tag : int array; (* id -> messages ever sent *)
  mutable pending_tag : int array;
      (* id -> undelivered messages (in flight or sitting in a live inbox);
         maintained incrementally at send / dead-destination discard /
         inbox drain / crash-time inbox clear, so per-tick monitors read
         it in O(1) instead of scanning every bucket and inbox *)
  mutable watches : watch array array;
      (* id -> the filtered counters on that tag, moved at the same four
         points as [pending_tag]. Empty until the first counter is
         registered, so unwatched runs pay one compare per packet. *)
  order : int array;
      (* per-tick scheduling order scratch: rebuilt to the identity and
         shuffled in place each tick, so [step] allocates no order array *)
}

(* 256 ticks of horizon covers every built-in adversary (delays are small
   bounded draws); anything beyond rides the overflow map and costs the
   old O(log n) only for itself. *)
let wheel_size = 256

let create ?(seed = 0xC0FFEEL) ?(retain_trace = true) ?(delivery = `Wheel) ~n ~adversary () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  let procs =
    Array.init n (fun pid ->
        {
          pid;
          alive = true;
          crash_at = None;
          components = Vec.create ();
          flat_actions = [||];
          cursor = 0;
          inbox = Vec.create ();
          last_step = 0;
          batch = [||];
        })
  in
  let delivery =
    match delivery with
    | `Wheel ->
        Wheel
          {
            slots = Array.init wheel_size (fun _ -> Vec.create ());
            mask = wheel_size - 1;
            overflow = Types.Pidmap.empty;
          }
    | `Reference -> Refmap { buckets = Types.Pidmap.empty }
  in
  {
    n_procs = n;
    procs;
    adversary;
    prng = Prng.create seed;
    clock = 0;
    delivery;
    flight_count = 0;
    live_count = n;
    tr = Trace.create ~retain:retain_trace ();
    hooks = Vec.create ();
    sent_total = 0;
    tag_ids = Hashtbl.create 32;
    tag_names = [||];
    tag_count = 0;
    sent_tag = [||];
    pending_tag = [||];
    watches = [||];
    order = Array.make n 0;
  }

let n t = t.n_procs
let now t = t.clock
let trace t = t.tr
let rng t = t.prng

let is_live t pid = t.procs.(pid).alive
let live_count t = t.live_count

let crashed t =
  Array.fold_left
    (fun acc p -> if p.alive then acc else Types.Pidset.add p.pid acc)
    Types.Pidset.empty t.procs

let live_set t =
  Array.fold_left
    (fun acc p -> if p.alive then Types.Pidset.add p.pid acc else acc)
    Types.Pidset.empty t.procs

(* Tags are interned at their first send or first counter registration. *)
let intern_tag t tag =
  match Hashtbl.find_opt t.tag_ids tag with
  | Some id -> id
  | None ->
      let id = t.tag_count in
      if id = Array.length t.tag_names then begin
        let cap = max 16 (2 * (id + 1)) in
        let grow a fill =
          let b = Array.make cap fill in
          Array.blit a 0 b 0 id;
          b
        in
        t.tag_names <- grow t.tag_names "";
        t.sent_tag <- grow t.sent_tag 0;
        t.pending_tag <- grow t.pending_tag 0
      end;
      t.tag_names.(id) <- tag;
      Hashtbl.replace t.tag_ids tag id;
      t.tag_count <- id + 1;
      id

(* simlint: hotpath *)
let count_watched t pkt delta =
  let ws = t.watches.(pkt.tag_id) in
  for k = 0 to Array.length ws - 1 do
    let w = ws.(k) in
    if w.pred pkt.payload then w.matching <- w.matching + delta
  done

(* [pkt] enters (+1) or leaves (-1) the undelivered set: move its tag's
   pending count and every filtered counter its payload matches. *)
let[@inline] pend t pkt delta =
  t.pending_tag.(pkt.tag_id) <- t.pending_tag.(pkt.tag_id) + delta;
  if pkt.tag_id < Array.length t.watches then count_watched t pkt delta

let send t ~src ~dst ~tag payload =
  if dst < 0 || dst >= t.n_procs then invalid_arg "Engine.send: bad destination";
  (* Reliable channels: the message is assigned a finite delay at send time.
     If the destination crashes before delivery, the packet is discarded at
     delivery time (a crashed process takes no further steps anyway). *)
  let delay = max 1 (t.adversary.Adversary.delay t.prng ~now:t.clock ~src ~dst) in
  let at = t.clock + delay in
  let tag_id = intern_tag t tag in
  let pkt = { src; dst; tag; tag_id; payload } in
  (match t.delivery with
  | Wheel w ->
      if at - t.clock <= wheel_size then Vec.add_last w.slots.(at land w.mask) pkt
      else begin
        let bucket =
          match Types.Pidmap.find_opt at w.overflow with
          | Some v -> v
          | None ->
              let v = Vec.create () in
              w.overflow <- Types.Pidmap.add at v w.overflow;
              v
        in
        Vec.add_last bucket pkt
      end
  | Refmap r ->
      let bucket =
        match Types.Pidmap.find_opt at r.buckets with
        | Some v -> v
        | None ->
            let v = Vec.create () in
            r.buckets <- Types.Pidmap.add at v r.buckets;
            v
      in
      Vec.add_last bucket pkt);
  t.flight_count <- t.flight_count + 1;
  t.sent_total <- t.sent_total + 1;
  t.sent_tag.(tag_id) <- t.sent_tag.(tag_id) + 1;
  pend t pkt 1

let ctx t pid : Context.t =
  {
    Context.self = pid;
    send = (fun ~dst ~tag m -> send t ~src:pid ~dst ~tag m);
    now = (fun () -> t.clock);
    rng = t.prng;
    log = (fun ev -> Trace.append t.tr ~at:t.clock ev);
    is_live = (fun q -> is_live t q);
  }

let reflatten p =
  let ncomps = Vec.length p.components in
  let total = ref 0 in
  for i = 0 to ncomps - 1 do
    total := !total + Array.length (Vec.get p.components i).Component.actions
  done;
  (if !total = 0 then p.flat_actions <- [||]
   else begin
     (* Seed value for Array.make; every slot is overwritten in order. *)
     let rec first i =
       let c = Vec.get p.components i in
       if Array.length c.Component.actions > 0 then (c, c.Component.actions.(0))
       else first (i + 1)
     in
     let flat = Array.make !total (first 0) in
     let k = ref 0 in
     for i = 0 to ncomps - 1 do
       let c = Vec.get p.components i in
       Array.iter
         (fun a ->
           flat.(!k) <- (c, a);
           incr k)
         c.Component.actions
     done;
     p.flat_actions <- flat
   end);
  (* The cursor indexed the *previous* flat layout; re-anchor the
     weak-fairness rotation at the start of the new one so a mid-run
     registration resumes from a well-defined action rather than wherever
     the old rotation happened to stop. *)
  p.cursor <- 0

let register t pid comp =
  let p = t.procs.(pid) in
  let dup = ref false in
  for i = 0 to Vec.length p.components - 1 do
    if String.equal (Vec.get p.components i).Component.cname comp.Component.cname then
      dup := true
  done;
  if !dup then
    invalid_arg
      (Printf.sprintf "Engine.register: duplicate component %s at p%d" comp.Component.cname
         pid);
  (* Vec append keeps n-process setup linear in total registrations; the
     old [p.components <- p.components @ [comp]] list append re-copied the
     whole list per layer, quadratic in layers per process. *)
  Vec.add_last p.components comp;
  reflatten p

let schedule_crash t pid ~at =
  let p = t.procs.(pid) in
  p.crash_at <-
    (match p.crash_at with Some old -> Some (min old at) | None -> Some at)

let do_crash t (p : proc) =
  if p.alive then begin
    p.alive <- false;
    t.live_count <- t.live_count - 1;
    (* Discard the pending inbox; each discarded packet leaves the
       per-tag undelivered counts with it. *)
    for i = 0 to Vec.length p.inbox - 1 do
      pend t (Vec.get p.inbox i) (-1)
    done;
    Vec.clear p.inbox;
    (* simlint: allow D011 — allocates only on the once-per-process crash transition *)
    Trace.append t.tr ~at:t.clock (Trace.Crash { pid = p.pid })
  end

let crash_now t pid = do_crash t t.procs.(pid)

(* Every undelivered packet: the delivery structure (wheel slots +
   overflow, or the reference map) plus the live inboxes. Cost is the
   wheel size plus the traffic — the counters' test oracle and the seed
   of a counter registered mid-run; the hot path never calls this. *)
let iter_undelivered t f =
  (match t.delivery with
  | Wheel w ->
      Array.iter (fun slot -> Vec.iter f slot) w.slots;
      Types.Pidmap.iter (fun _ bucket -> Vec.iter f bucket) w.overflow
  | Refmap r -> Types.Pidmap.iter (fun _ bucket -> Vec.iter f bucket) r.buckets);
  Array.iter (fun p -> Vec.iter f p.inbox) t.procs

let in_flight_scan t ~tag ~f =
  let count = ref 0 in
  iter_undelivered t (fun pkt -> if String.equal pkt.tag tag && f pkt.payload then incr count);
  !count

let in_flight t ~tag =
  match Hashtbl.find_opt t.tag_ids tag with Some id -> t.pending_tag.(id) | None -> 0

let in_flight_counter t ~tag ~f =
  let id = intern_tag t tag in
  (* A counter registered before its tag has traffic, the usual case for
     monitors installed ahead of the run, starts at 0 without a scan. *)
  let matching = if t.pending_tag.(id) = 0 then 0 else in_flight_scan t ~tag ~f in
  let w = { pred = f; matching } in
  if id >= Array.length t.watches then begin
    let grown = Array.make (Array.length t.tag_names) [||] in
    Array.blit t.watches 0 grown 0 (Array.length t.watches);
    t.watches <- grown
  end;
  t.watches.(id) <- Array.append t.watches.(id) [| w |];
  fun () -> w.matching

let in_flight_total t = t.flight_count

let sent_total t = t.sent_total

let sent_with_tag t ~tag =
  match Hashtbl.find_opt t.tag_ids tag with Some id -> t.sent_tag.(id) | None -> 0

let sent_by_tag t =
  let acc = ref [] in
  for id = t.tag_count - 1 downto 0 do
    (* A tag interned by a counter registration has not sent yet. *)
    if t.sent_tag.(id) > 0 then acc := (t.tag_names.(id), t.sent_tag.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Hooks run in registration order; a Vec keeps registration O(1) amortised
   where the previous [t.hooks <- t.hooks @ [f]] re-copied the whole list,
   quadratic in hook count. *)
let on_tick t f = Vec.add_last t.hooks f

(* Deliver one packet: move it to the destination inbox, or discard it if
   the destination crashed (the per-tag pending counts drop either way it
   leaves the system — on discard here, on drain otherwise). *)
(* simlint: hotpath *)
let deliver_packet t pkt =
  t.flight_count <- t.flight_count - 1;
  let p = t.procs.(pkt.dst) in
  if p.alive then Vec.add_last p.inbox pkt else pend t pkt (-1)

(* Iterative bucket delivery in send order (oldest first). The old list
   representation recursed to the bucket tail before delivering, so the
   stack grew with the bucket — a same-tick flood at n=10^5 overflowed it.
   Vec buckets append in send order and an index loop delivers them with
   O(1) stack whatever the bucket size. *)
(* simlint: hotpath *)
let deliver_slot t slot =
  for i = 0 to Vec.length slot - 1 do
    deliver_packet t (Vec.get slot i)
  done;
  Vec.clear slot

(* One wheel turn: deliver the current tick's slot, then migrate the
   overflow bucket entering the window, if any, into the slot just freed
   ([at = clock + wheel_size] maps to [clock land mask]). Migration
   precedes this tick's sends, and a direct wheel insert for the same
   delivery tick can only happen at [clock >= at - wheel_size], so within
   any slot migrated packets (sent strictly earlier) come first and global
   send order — the delivery order the old map preserved — is kept. *)
(* simlint: hotpath *)
let turn_wheel t w =
  deliver_slot t w.slots.(t.clock land w.mask);
  match Types.Pidmap.min_binding_opt w.overflow with
  | Some (at, bucket) when at - t.clock <= wheel_size ->
      w.overflow <- Types.Pidmap.remove at w.overflow;
      let dst = w.slots.(at land w.mask) in
      for i = 0 to Vec.length bucket - 1 do
        Vec.add_last dst (Vec.get bucket i)
      done
  | Some _ | None -> ()

(* Reference delivery: peel ripe buckets off the cheap end of the map in
   ascending delivery-time order, exactly the old tree-map behaviour. *)
(* simlint: hotpath *)
let rec deliver_ref t r =
  match Types.Pidmap.min_binding_opt r.buckets with
  | Some (at, bucket) when at <= t.clock ->
      r.buckets <- Types.Pidmap.remove at r.buckets;
      deliver_slot t bucket;
      deliver_ref t r
  | Some _ | None -> ()

(* First registered component whose name matches the tag handles the
   packet; a message for an unregistered layer is dropped. Open-coded
   index walk (rather than a [find]-style combinator) so the per-packet
   dispatch neither builds a predicate closure nor boxes the result. *)
(* simlint: hotpath *)
let rec route_from (p : proc) i ~src payload tag =
  if i < Vec.length p.components then begin
    let c = Vec.get p.components i in
    if String.equal c.Component.cname tag then c.Component.on_receive ~src payload
    else route_from p (i + 1) ~src payload tag
  end

(* simlint: hotpath *)
let route_receive (p : proc) pkt = route_from p 0 ~src:pkt.src pkt.payload pkt.tag

(* One atomic step of process [p]: consume the pending messages (the paper's
   atomic step receives at most one message from *each* process, so draining
   the inbox — which holds at most a few packets per peer — is faithful and,
   crucially, keeps consumption ahead of production: draining only one packet
   per step would let chatty layers grow the inbox without bound, silently
   stretching every delivery), then execute at most one enabled guarded
   action, scanning from the rotating cursor so that a continuously enabled
   action runs within one full rotation (weak fairness). *)
(* Weak-fairness scan from the rotating cursor: run the first enabled
   action, advancing the cursor past it. Hoisted to top level so the hot
   step builds no [scan] closure (a local [let rec] capturing its
   environment is reallocated per process step). *)
let rec scan_action (p : proc) acts m k =
  if k < m then begin
    let idx = (p.cursor + k) mod m in
    let _, a = acts.(idx) in
    if a.Component.guard () then begin
      p.cursor <- (idx + 1) mod m;
      a.Component.body ()
    end
    else scan_action p acts m (k + 1)
  end

(* simlint: hotpath *)
let step_process t (p : proc) =
  p.last_step <- t.clock;
  let pending = Vec.length p.inbox in
  if pending > 0 then begin
    (* Non-FIFO: consume in a randomly shuffled order. Only the packets
       present at the start of the step are delivered in it. The batch
       lives in per-process scratch reused across steps; [shuffle_prefix]
       draws exactly what [shuffle] on a fresh [pending]-sized array drew,
       so replay digests are unchanged. *)
    if Array.length p.batch < pending then
      (* simlint: allow D011 — amortised geometric scratch growth, not a per-step cost *)
      p.batch <- Array.make (max 8 (2 * pending)) (Vec.get p.inbox 0);
    for i = 0 to pending - 1 do
      let pkt = Vec.get p.inbox i in
      p.batch.(i) <- pkt;
      (* Drained from the inbox: the packet stops counting as undelivered
         the moment this step consumes it, matching what a scan of the
         inboxes at the end of the tick would see. *)
      pend t pkt (-1)
    done;
    Vec.clear p.inbox;
    Prng.shuffle_prefix t.prng p.batch ~len:pending;
    for i = 0 to pending - 1 do
      if p.alive then route_receive p p.batch.(i)
    done
  end;
  if p.alive then begin
    let acts = p.flat_actions in
    let m = Array.length acts in
    if m > 0 then scan_action p acts m 0
  end

(* simlint: hotpath *)
let step t =
  t.clock <- t.clock + 1;
  for i = 0 to t.n_procs - 1 do
    let p = t.procs.(i) in
    match p.crash_at with
    | Some at when at <= t.clock -> do_crash t p
    | Some _ | None -> ()
  done;
  (match t.delivery with Wheel w -> turn_wheel t w | Refmap r -> deliver_ref t r);
  (* Steps within a tick run in adversary-shuffled order: a fixed pid order
     would systematically favour low pids in same-tick interactions, which
     asynchrony does not promise anyone. The identity order is rebuilt in
     place in per-engine scratch each tick — same draws, same permutation
     as shuffling a fresh [Array.init n Fun.id], without the allocation. *)
  let order = t.order in
  for i = 0 to t.n_procs - 1 do
    order.(i) <- i
  done;
  Prng.shuffle t.prng order;
  for i = 0 to t.n_procs - 1 do
    let p = t.procs.(order.(i)) in
    if p.alive then begin
      let offered = t.adversary.Adversary.steps t.prng ~now:t.clock p.pid in
      let forced = t.clock - p.last_step >= t.adversary.Adversary.fairness_bound in
      if offered || forced then step_process t p
    end
  done;
  Vec.iter (fun f -> f ()) t.hooks

let run t ~until =
  while t.clock < until do
    step t
  done

let run_while t ~max cond =
  while t.clock < max && cond () do
    step t
  done
