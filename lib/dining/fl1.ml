open Dsim

type Msg.t += Fl_fork | Fl_request of int

type edge_state = {
  peer : Types.pid;
  mutable has_fork : bool;
  mutable peer_req : int; (* pending request timestamp from peer, or [no_ts] *)
  mutable next_ask : Types.time;
}

(* Session timestamps start at 1, so 0 is neither a pending request's nor
   a current session's. *)
let no_ts = 0

(* The edge to [src], found without building a closure or an option per
   received message. *)
let rec edge_to src = function
  | [] -> raise Not_found
  | (e : edge_state) :: rest -> if e.peer = src then e else edge_to src rest

let component (ctx : Context.t) ~instance ~graph ~suspects () =
  let self = ctx.Context.self in
  let cell = Spec.Cell.create ctx ~instance in
  let handle = Spec.Cell.handle cell in
  let edges =
    Graphs.Conflict_graph.neighbor_list graph self
    |> List.map (fun peer ->
           { peer; has_fork = self > peer; peer_req = no_ts; next_ask = 0 })
  in
  let suspected q = Types.Pidset.mem q (suspects ()) in
  let eating () = match handle.Spec.phase with Types.Eating -> true | _ -> false in
  let hungry () = match handle.Spec.phase with Types.Hungry -> true | _ -> false in
  let clock = ref 0 in
  let session = ref no_ts in
  let stamp_session =
    Component.action "fl-stamp"
      ~guard:(fun () -> hungry () && !session = no_ts)
      ~body:(fun () ->
        incr clock;
        session := !clock)
  in
  let needs_request (e : edge_state) =
    (not e.has_fork) && ctx.Context.now () >= e.next_ask
  in
  let request_fork e =
    if !session <> no_ts && needs_request e then begin
      e.next_ask <- ctx.Context.now () + 32;
      ctx.Context.send ~dst:e.peer ~tag:instance (Fl_request !session)
    end
  in
  let request_forks =
    Component.action "fl-request"
      ~guard:(fun () -> hungry () && !session <> no_ts && List.exists needs_request edges)
      ~body:(fun () -> List.iter request_fork edges)
  in
  (* Doomed: waiting on a fork whose holder we currently suspect. A doomed
     diner cannot eat soon, so it must not make anyone wait on it. *)
  let held_by_suspect (e : edge_state) = (not e.has_fork) && suspected e.peer in
  let doomed () = hungry () && List.exists held_by_suspect edges in
  let i_have_priority_over req_ts peer =
    !session <> no_ts && hungry () && (not (doomed ())) && Spec.precedes !session self req_ts peer
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
      ctx.Context.send ~dst:e.peer ~tag:instance Fl_fork
    end
  in
  let yield_forks =
    Component.action "fl-yield"
      ~guard:(fun () -> List.exists owed edges)
      ~body:(fun () -> List.iter yield_fork edges)
  in
  (* Perpetual exclusion: eating requires every real fork — suspicion never
     substitutes for one. *)
  let eat =
    Component.action "fl-eat"
      ~guard:(fun () ->
        hungry () && !session <> no_ts
        && List.for_all (fun (e : edge_state) -> e.has_fork) edges)
      ~body:(fun () -> Spec.Cell.set cell Types.Eating)
  in
  let finish_exit =
    Component.action "fl-exit"
      ~guard:(fun () -> match handle.Spec.phase with Types.Exiting -> true | _ -> false)
      ~body:(fun () ->
        session := no_ts;
        List.iter (fun (e : edge_state) -> e.next_ask <- 0) edges;
        Spec.Cell.set cell Types.Thinking)
  in
  let on_receive ~src msg =
    match edge_to src edges with
    | exception Not_found -> ()
    | e -> (
        match msg with
        | Fl_request ts ->
            clock := Int.max !clock ts;
            e.peer_req <- ts
        | Fl_fork -> e.has_fork <- true
        | _ -> ())
  in
  let comp =
    Component.make ~name:instance
      ~actions:[ stamp_session; request_forks; yield_forks; eat; finish_exit ]
      ~on_receive ()
  in
  (comp, handle)
