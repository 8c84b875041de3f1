(* Undelivered messages, oldest first: message [i < len] is the packed
   header [meta.(i)] (see [pack]) with payload [payloads.(i)]. Both
   arrays grow geometrically and are reused once emptied, so holding,
   moving and consuming a message allocates nothing. Every message store
   is one: a wheel slot, an overflow or reference bucket, a process
   inbox. *)
type queue = { mutable meta : int array; mutable payloads : Msg.t array; mutable len : int }

(* In-flight delivery structure. The production representation is a
   bucketed timing wheel: slot [s] holds the messages due at one future
   tick in the window (t.clock, t.clock + size], indexed by [at land mask],
   so send and delivery are O(1) in the number of distinct delivery times.

   The wheel is sized to the delays the run draws ([grow_wheel]), from
   [initial_wheel] up to [max_wheel] slots, so a short run with small
   delays allocates a small wheel, and a delivered payload stays reachable
   from its slot only until that slot comes round again, a few ticks.
   Deliveries beyond [max_wheel] ticks land in [overflow], an int map
   keyed on delivery tick whose minimum bucket becomes the slot of its
   tick the tick it enters the window (exactly one bucket can qualify per
   tick, because buckets hold distinct ticks and the window advances one
   tick at a time). The overflow map fills only at [max_wheel] slots, so
   growth never has a bucket to migrate. The wheel holds only future
   ticks, so a slot is always empty when its tick's messages start
   arriving.

   [Refmap] is the previous tree-map-of-buckets representation, kept as a
   reference implementation: O(log buckets) per send/delivery, but simple
   enough to be obviously correct. The equivalence property test in
   test/test_scale.ml runs randomized instances under both and demands
   byte-identical traces. *)
type wheel = {
  mutable slots : queue array; (* length is a power of two *)
  mutable mask : int; (* Array.length slots - 1 *)
  mutable overflow : queue Types.Pidmap.t; (* empty below max_wheel *)
}

type refmap = { mutable buckets : queue Types.Pidmap.t }

type delivery = Wheel of wheel | Refmap of refmap

(* A filtered in-flight counter: the undelivered messages on one tag whose
   payload satisfies [pred]. *)
type watch = { pred : Msg.t -> bool; mutable matching : int }

type proc = {
  pid : Types.pid;
  mutable alive : bool;
  mutable crash_at : Types.time option;
  components : Component.t Vec.t; (* registration order *)
  mutable flat_actions : Component.action array; (* the components', in order *)
  mutable cursor : int; (* weak-fairness rotation over flat_actions *)
  inbox : queue; (* delivered, not yet consumed *)
  mutable last_step : Types.time;
  mutable ctx : Context.t option; (* built by the first [ctx] call *)
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
  mutable watches : watch array array;
      (* id -> the filtered counters of undelivered messages (in flight or
         sitting in a live inbox) on that tag, moved incrementally at send
         / dead-destination discard / inbox drain / crash-time inbox
         clear, so per-tick monitors read them in O(1) instead of scanning
         every bucket and inbox. Empty until the first counter is
         registered, so unwatched runs pay one compare per message. *)
  order : int array;
      (* per-tick scheduling order scratch: rebuilt to the identity and
         shuffled in place each tick, so [step] allocates no order array *)
  mutable picks : int array;
      (* [step_process]'s consumption order scratch, grown geometrically:
         the inbox indices, shuffled in place *)
}

(* A message header packs source, destination and interned tag id, 21
   bits each, into one immediate int; [create] and [intern_tag] keep all
   three below [field_limit]. *)
let field_bits = 21
let field_limit = 1 lsl field_bits
let field_mask = field_limit - 1
let[@inline] pack ~src ~dst ~tag_id = (src lsl (2 * field_bits)) lor (dst lsl field_bits) lor tag_id
let[@inline] src_of m = m lsr (2 * field_bits)
let[@inline] dst_of m = (m lsr field_bits) land field_mask
let[@inline] tag_of m = m land field_mask

let queue () = { meta = [||]; payloads = [||]; len = 0 }

let push q m payload =
  let len = q.len in
  if len = Array.length q.meta then
    if len = 0 then begin
      (* Array literals allocate inline, where [Array.make] and
         [Array.blit] are C calls; most queues of a model-checker
         schedule never grow past these four entries. *)
      q.meta <- [| 0; 0; 0; 0 |];
      q.payloads <- [| payload; payload; payload; payload |]
    end
    else begin
      let meta = Array.make (2 * len) 0 and payloads = Array.make (2 * len) payload in
      Array.blit q.meta 0 meta 0 len;
      Array.blit q.payloads 0 payloads 0 len;
      q.meta <- meta;
      q.payloads <- payloads
    end;
  q.meta.(len) <- m;
  q.payloads.(len) <- payload;
  q.len <- len + 1

(* A wheel starts with room for the unit delays of synchronous runs and
   the small draws of the DLS family. 256 ticks of horizon covers every
   built-in adversary (delays are small bounded draws); anything beyond
   rides the overflow map and costs the old O(log n) only for itself. *)
let initial_wheel = 4
let max_wheel = 256

let create ?(seed = 0xC0FFEEL) ?(retain_trace = true) ?(delivery = `Wheel) ~n ~adversary () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  if n > field_limit then invalid_arg "Engine.create: n must be at most 2^21";
  let procs =
    Array.init n (fun pid ->
        {
          pid;
          alive = true;
          crash_at = None;
          components = Vec.create ();
          flat_actions = [||];
          cursor = 0;
          inbox = queue ();
          last_step = 0;
          ctx = None;
        })
  in
  let delivery =
    match delivery with
    | `Wheel ->
        Wheel
          {
            slots = Array.init initial_wheel (fun _ -> queue ());
            mask = initial_wheel - 1;
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
    tag_ids = Hashtbl.create 16;
    tag_names = [||];
    tag_count = 0;
    sent_tag = [||];
    watches = [||];
    order = Array.make n 0;
    picks = [||];
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

(* Tags are interned at their first send or first counter registration.
   [Hashtbl.find] rather than [find_opt], so a send builds no option. *)
let intern_tag t tag =
  match Hashtbl.find t.tag_ids tag with
  | id -> id
  | exception Not_found ->
      let id = t.tag_count in
      if id = field_limit then invalid_arg "Engine: more than 2^21 message tags";
      if id = Array.length t.tag_names then begin
        let cap = max 16 (2 * (id + 1)) in
        let grow a fill =
          let b = Array.make cap fill in
          Array.blit a 0 b 0 id;
          b
        in
        t.tag_names <- grow t.tag_names "";
        t.sent_tag <- grow t.sent_tag 0
      end;
      t.tag_names.(id) <- tag;
      Hashtbl.replace t.tag_ids tag id;
      t.tag_count <- id + 1;
      id

let count_watched t tag_id payload delta =
  let ws = t.watches.(tag_id) in
  for k = 0 to Array.length ws - 1 do
    let w = ws.(k) in
    if w.pred payload then w.matching <- w.matching + delta
  done

(* A message enters (+1) or leaves (-1) the undelivered set: move every
   filtered counter on its tag that its payload matches. *)
let[@inline] pend t tag_id payload delta =
  if tag_id < Array.length t.watches then count_watched t tag_id payload delta

(* Grow the wheel to the smallest power of two of at least [delay] slots,
   at most [max_wheel]. New slot [s'] holds the one tick [at] of the
   window (clock, clock + size'] with [at land mask' = s']; for a tick of
   the old window that is the old slot of [at], moved whole, so no message
   is touched and each slot keeps its send order. *)
let grow_wheel w ~clock ~delay =
  let size = w.mask + 1 in
  let rec fit s = if s >= delay || s >= max_wheel then s else fit (2 * s) in
  let size' = fit (2 * size) in
  let slots =
    Array.init size' (fun s' ->
        let at = clock + 1 + ((s' - clock - 1) land (size' - 1)) in
        if at <= clock + size then w.slots.(at land w.mask) else queue ())
  in
  w.slots <- slots;
  w.mask <- size' - 1

(* Append to the bucket of delivery tick [at], creating it if needed. *)
let push_bucket buckets at m payload =
  match Types.Pidmap.find at buckets with
  | q ->
      push q m payload;
      buckets
  | exception Not_found ->
      let q = queue () in
      push q m payload;
      Types.Pidmap.add at q buckets

let send t ~src ~dst ~tag payload =
  if dst < 0 || dst >= t.n_procs then invalid_arg "Engine.send: bad destination";
  (* Reliable channels: the message is assigned a finite delay at send time.
     If the destination crashes before delivery, the message is discarded at
     delivery time (a crashed process takes no further steps anyway). *)
  let delay = max 1 (t.adversary.Adversary.delay t.prng ~now:t.clock ~src ~dst) in
  let at = t.clock + delay in
  let tag_id = intern_tag t tag in
  let m = pack ~src ~dst ~tag_id in
  (match t.delivery with
  | Wheel w ->
      if delay > w.mask + 1 && w.mask + 1 < max_wheel then grow_wheel w ~clock:t.clock ~delay;
      if delay <= w.mask + 1 then push w.slots.(at land w.mask) m payload
      else w.overflow <- push_bucket w.overflow at m payload
  | Refmap r -> r.buckets <- push_bucket r.buckets at m payload);
  t.flight_count <- t.flight_count + 1;
  t.sent_total <- t.sent_total + 1;
  t.sent_tag.(tag_id) <- t.sent_tag.(tag_id) + 1;
  pend t tag_id payload 1

(* One context per process, built at the first request: a deployment
   that asks again (the detector layer, then the dining layer) shares it. *)
let ctx t pid : Context.t =
  let p = t.procs.(pid) in
  match p.ctx with
  | Some c -> c
  | None ->
      let c =
        {
          Context.self = pid;
          send = (fun ~dst ~tag m -> send t ~src:pid ~dst ~tag m);
          now = (fun () -> t.clock);
          rng = t.prng;
          log = (fun ev -> Trace.append t.tr ~at:t.clock ev);
          is_live = (fun q -> is_live t q);
        }
      in
      p.ctx <- Some c;
      c

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
  if Array.length comp.Component.actions > 0 then
    p.flat_actions <- Array.append p.flat_actions comp.Component.actions;
  (* The cursor indexed the *previous* flat layout; re-anchor the
     weak-fairness rotation at the start of the new one so a mid-run
     registration resumes from a well-defined action rather than wherever
     the old rotation happened to stop. *)
  p.cursor <- 0

let schedule_crash t pid ~at =
  if pid < 0 || pid >= t.n_procs then invalid_arg "Engine.schedule_crash: bad pid";
  let p = t.procs.(pid) in
  p.crash_at <-
    (match p.crash_at with Some old -> Some (min old at) | None -> Some at)

let do_crash t (p : proc) =
  if p.alive then begin
    p.alive <- false;
    t.live_count <- t.live_count - 1;
    (* Discard the pending inbox; each discarded message leaves the
       per-tag undelivered counts with it. *)
    let q = p.inbox in
    for i = 0 to q.len - 1 do
      pend t (tag_of q.meta.(i)) q.payloads.(i) (-1)
    done;
    q.len <- 0;
    Trace.append t.tr ~at:t.clock (Trace.Crash { pid = p.pid })
  end

let crash_now t pid = do_crash t t.procs.(pid)

(* Every undelivered message, as [f header payload]: the delivery
   structure (wheel slots + overflow, or the reference map) plus the live
   inboxes. Cost is the wheel size plus the traffic — the counters' test
   oracle and the seed of a counter registered mid-run; the hot path never
   calls this. *)
let iter_undelivered t f =
  let each q =
    for i = 0 to q.len - 1 do
      f q.meta.(i) q.payloads.(i)
    done
  in
  (match t.delivery with
  | Wheel w ->
      Array.iter each w.slots;
      Types.Pidmap.iter (fun _ q -> each q) w.overflow
  | Refmap r -> Types.Pidmap.iter (fun _ q -> each q) r.buckets);
  Array.iter (fun p -> each p.inbox) t.procs

let in_flight_scan t ~tag ~f =
  match Hashtbl.find_opt t.tag_ids tag with
  | None -> 0
  | Some id ->
      let count = ref 0 in
      iter_undelivered t (fun m payload -> if tag_of m = id && f payload then incr count);
      !count

let in_flight_counter t ~tag ~f =
  let id = intern_tag t tag in
  (* A tag that has never sent has nothing pending: a counter registered
     then, the usual case for monitors installed ahead of the run, starts
     at 0 without a scan. *)
  let matching = if t.sent_tag.(id) = 0 then 0 else in_flight_scan t ~tag ~f in
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

(* Deliver one message: move it to the destination inbox, or discard it if
   the destination crashed (the per-tag pending counts drop either way it
   leaves the system — on discard here, on consumption otherwise). *)
let deliver t m payload =
  t.flight_count <- t.flight_count - 1;
  let p = t.procs.(dst_of m) in
  if p.alive then push p.inbox m payload else pend t (tag_of m) payload (-1)

let deliver_all t q =
  for i = 0 to q.len - 1 do
    deliver t q.meta.(i) q.payloads.(i)
  done

(* One wheel turn: deliver the current tick's slot, then let the overflow
   bucket entering the window, if any, become the slot just emptied
   ([at = clock + max_wheel] maps to [clock land mask]: the overflow map
   fills only at full size). Migration precedes this tick's sends, and a
   direct wheel insert for the same delivery tick can only happen at
   [clock >= at - max_wheel], so within any slot migrated messages (sent
   strictly earlier) come first and global send order — the delivery
   order the old map preserved — is kept.
   Slots and buckets append in send order and index loops deliver them
   oldest first, with O(1) stack whatever their size: a recursive walk
   would overflow the stack on a same-tick flood at n=10^5. *)
let turn_wheel t w =
  let s = t.clock land w.mask in
  let slot = w.slots.(s) in
  deliver_all t slot;
  slot.len <- 0;
  match Types.Pidmap.min_binding_opt w.overflow with
  | Some (at, bucket) when at - t.clock <= max_wheel ->
      w.overflow <- Types.Pidmap.remove at w.overflow;
      w.slots.(at land w.mask) <- bucket
  | Some _ | None -> ()

(* Reference delivery: peel ripe buckets off the cheap end of the map in
   ascending delivery-time order, exactly the old tree-map behaviour. *)
let rec deliver_ref t r =
  match Types.Pidmap.min_binding_opt r.buckets with
  | Some (at, bucket) when at <= t.clock ->
      r.buckets <- Types.Pidmap.remove at r.buckets;
      deliver_all t bucket;
      deliver_ref t r
  | Some _ | None -> ()

(* First registered component whose name matches the tag handles the
   message; a message for an unregistered layer is dropped. Open-coded
   index walk (rather than a [find]-style combinator) so the per-message
   dispatch neither builds a predicate closure nor boxes the result. *)
let rec route_from (p : proc) i ~src payload tag =
  if i < Vec.length p.components then begin
    let c = Vec.get p.components i in
    if String.equal c.Component.cname tag then c.Component.on_receive ~src payload
    else route_from p (i + 1) ~src payload tag
  end

(* Weak-fairness scan from the rotating cursor: run the first enabled
   action, advancing the cursor past it. Hoisted to top level so the hot
   step builds no [scan] closure (a local [let rec] capturing its
   environment is reallocated per process step). The cursor is below [m]
   (registration resets it to 0), so [cursor + k < 2m] wraps by one
   compare-and-subtract rather than a division per guard. *)
let rec scan_action (p : proc) acts m k =
  if k < m then begin
    let i = p.cursor + k in
    let idx = if i >= m then i - m else i in
    let a = acts.(idx) in
    if a.Component.guard () then begin
      p.cursor <- (if idx + 1 = m then 0 else idx + 1);
      a.Component.body ()
    end
    else scan_action p acts m (k + 1)
  end

(* One atomic step of process [p]: consume every message pending at the
   step's start (the paper's atomic step receives at most one message from
   *each* process, so draining the inbox — which holds at most a few
   messages per peer — is faithful and, crucially, keeps consumption ahead
   of production: consuming only one message per step would let chatty
   layers grow the inbox without bound, silently stretching every
   delivery), then execute at most one enabled guarded action, scanning
   from the rotating cursor so that a continuously enabled action runs
   within one full rotation (weak fairness). *)
let step_process t (p : proc) =
  p.last_step <- t.clock;
  let q = p.inbox in
  let pending = q.len in
  if pending > 0 then begin
    (* Consumed by this step: each message stops counting as undelivered
       now, matching what a scan of the inboxes at the end of the tick
       would see, and a crash during the step discards nothing more. *)
    for i = 0 to pending - 1 do
      pend t (tag_of q.meta.(i)) q.payloads.(i) (-1)
    done;
    q.len <- 0;
    (* Non-FIFO: consume in a randomly shuffled order, routing in place.
       Nothing is delivered during a step, so the inbox's first [pending]
       entries stay as they were. Shuffling their indices makes exactly the
       draws, and the permutation, of shuffling the messages themselves. *)
    if Array.length t.picks < pending then t.picks <- Array.make (max 8 (2 * pending)) 0;
    let picks = t.picks in
    for i = 0 to pending - 1 do
      picks.(i) <- i
    done;
    Prng.shuffle_prefix t.prng picks ~len:pending;
    for i = 0 to pending - 1 do
      if p.alive then begin
        let k = picks.(i) in
        let m = q.meta.(k) in
        route_from p 0 ~src:(src_of m) q.payloads.(k) t.tag_names.(tag_of m)
      end
    done
  end;
  if p.alive then begin
    let acts = p.flat_actions in
    let m = Array.length acts in
    if m > 0 then scan_action p acts m 0
  end

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
