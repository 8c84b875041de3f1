open Dsim

type config = { suspicion_override : bool }

let default_config = { suspicion_override = true }

type Msg.t += Fork | Request of int (* requester's session timestamp *)

type edge_state = {
  peer : Types.pid;
  mutable has_fork : bool;
  mutable peer_req : int; (* pending request timestamp from peer, or [no_ts] *)
  mutable next_ask : Types.time; (* earliest time of the next (re-)request *)
}

(* Session timestamps start at 1, so 0 is neither a pending request's nor
   a current session's. *)
let no_ts = 0

(* The edge to [src]. A named recursion builds neither a predicate closure
   nor an option per received message. *)
let rec edge_to src = function
  | [] -> raise Not_found
  | (e : edge_state) :: rest -> if e.peer = src then e else edge_to src rest

type debug = {
  has_fork : Types.pid -> bool;
  peer_requesting : Types.pid -> bool;
  eating_virtually : unit -> bool;
}

let component (ctx : Context.t) ~instance ~graph ~suspects ?(config = default_config) () =
  let self = ctx.Context.self in
  let cell = Spec.Cell.create ctx ~instance in
  let handle = Spec.Cell.handle cell in
  let edges =
    Graphs.Conflict_graph.neighbor_list graph self
    |> List.map (fun peer ->
           (* The fork starts at the higher-id endpoint. *)
           { peer; has_fork = self > peer; peer_req = no_ts; next_ask = 0 })
  in
  let suspected q = config.suspicion_override && Types.Pidset.mem q (suspects ()) in
  let eating () = match handle.Spec.phase with Types.Eating -> true | _ -> false in
  let hungry () = match handle.Spec.phase with Types.Hungry -> true | _ -> false in
  (* Lamport clock and the timestamp of the current hungry session. Smaller
     (timestamp, pid) = higher priority; timestamps grow along message
     chains, so sessions that keep losing get ever-stronger claims:
     starvation-free among live diners, no persistent precedence state to
     corrupt. *)
  let clock = ref 0 in
  let session = ref no_ts in
  let stamp_session =
    Component.action "din-stamp"
      ~guard:(fun () -> hungry () && !session = no_ts)
      ~body:(fun () ->
        incr clock;
        session := !clock)
  in
  (* Requests are retried while the fork is missing: sessions and yields
     race on non-FIFO channels, so a request recorded at a holder can be
     consumed by a yield whose fork is immediately won back by a third
     party with an older claim — a one-shot request would then never reach
     the new holder and the requester would starve. Retrying is idempotent
     (the holder just re-records the pending timestamp). *)
  let needs_request (e : edge_state) =
    (not e.has_fork) && ctx.Context.now () >= e.next_ask && not (suspected e.peer)
  in
  let request_fork e =
    if !session <> no_ts && needs_request e then begin
      e.next_ask <- ctx.Context.now () + 32;
      ctx.Context.send ~dst:e.peer ~tag:instance (Request !session)
    end
  in
  let request_forks =
    Component.action "din-request"
      ~guard:(fun () -> hungry () && !session <> no_ts && List.exists needs_request edges)
      ~body:(fun () -> List.iter request_fork edges)
  in
  (* Yield rule: a requested fork is surrendered unless we are eating with
     it or we are hungry with strictly higher priority. *)
  let i_have_priority_over req_ts peer =
    !session <> no_ts && hungry () && Spec.precedes !session self req_ts peer
  in
  let owed (e : edge_state) =
    e.has_fork && (not (eating ()))
    && e.peer_req <> no_ts
    && not (i_have_priority_over e.peer_req e.peer)
  in
  let yield_fork e =
    if owed e then begin
      e.has_fork <- false;
      e.peer_req <- no_ts;
      e.next_ask <- 0;
      ctx.Context.send ~dst:e.peer ~tag:instance Fork
    end
  in
  let yield_forks =
    Component.action "din-yield"
      ~guard:(fun () -> List.exists owed edges)
      ~body:(fun () -> List.iter yield_fork edges)
  in
  let virtual_eat = ref false in
  let covered (e : edge_state) = e.has_fork || suspected e.peer in
  let eat =
    Component.action "din-eat"
      ~guard:(fun () -> hungry () && !session <> no_ts && List.for_all covered edges)
      ~body:(fun () ->
        virtual_eat := List.exists (fun (e : edge_state) -> not e.has_fork) edges;
        Spec.Cell.set cell Types.Eating)
  in
  let finish_exit =
    Component.action "din-exit"
      ~guard:(fun () -> match handle.Spec.phase with Types.Exiting -> true | _ -> false)
      ~body:(fun () ->
        virtual_eat := false;
        session := no_ts;
        List.iter (fun (e : edge_state) -> e.next_ask <- 0) edges;
        Spec.Cell.set cell Types.Thinking)
  in
  let on_receive ~src msg =
    match edge_to src edges with
    | exception Not_found -> ()
    | e -> (
        match msg with
        | Request ts ->
            clock := Int.max !clock ts;
            e.peer_req <- ts
        | Fork -> e.has_fork <- true
        | _ -> ())
  in
  let comp =
    Component.make ~name:instance
      ~actions:[ stamp_session; request_forks; yield_forks; eat; finish_exit ]
      ~on_receive ()
  in
  let find q =
    match edge_to q edges with
    | e -> e
    | exception Not_found -> invalid_arg "Wf_ewx.debug: not a neighbor"
  in
  let debug =
    {
      has_fork = (fun q -> (find q).has_fork);
      peer_requesting = (fun q -> (find q).peer_req <> no_ts);
      eating_virtually = (fun () -> !virtual_eat && eating ());
    }
  in
  (comp, handle, debug)
