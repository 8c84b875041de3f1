open Dsim

type Msg.t += Kf_req of int | Kf_grant of int

(* Per-neighbor request bookkeeping. [latest_req] is the maximum timestamp
   ever received from that neighbor — monotone on purpose: session
   timestamps strictly increase at the requester, but non-FIFO channels can
   deliver a stale (smaller) request *after* the current one, and treating
   the stale value as the pending request would make us answer with a grant
   the requester drops as outdated, losing its real request forever (a
   whole-graph deadlock observed in sweeps). [granted_upto] is the largest
   timestamp we have answered. Both start at [min_int], below every
   timestamp, so a neighbor that never asked has nothing pending. *)
type neighbor = {
  peer : Types.pid;
  mutable granted : bool; (* their grant for my current request *)
  mutable latest_req : int;
  mutable granted_upto : int;
}

(* The neighbor [src], found without building a closure or an option per
   received message. *)
let rec neighbor_of src = function
  | [] -> raise Not_found
  | nb :: rest -> if nb.peer = src then nb else neighbor_of src rest

let component (ctx : Context.t) ~instance ~graph ~suspects () =
  let self = ctx.Context.self in
  let cell = Spec.Cell.create ctx ~instance in
  let handle = Spec.Cell.handle cell in
  let hungry () = match handle.Spec.phase with Types.Hungry -> true | _ -> false in
  let neighbors =
    Graphs.Conflict_graph.neighbor_list graph self
    |> List.map (fun peer ->
           { peer; granted = false; latest_req = min_int; granted_upto = min_int })
  in
  let clock = ref 0 in
  let req_ts = ref (-1) in
  let sent = ref false in
  (* Priority: lexicographic (timestamp, pid) — a total order, so two
     conflicting requests never defer to each other. *)
  let my_priority_over ts peer =
    !sent && hungry () && Spec.precedes !req_ts self ts peer
  in
  let ask nb =
    nb.granted <- false;
    ctx.Context.send ~dst:nb.peer ~tag:instance (Kf_req !req_ts)
  in
  let request =
    Component.action "kf-request"
      ~guard:(fun () -> hungry () && not !sent)
      ~body:(fun () ->
        incr clock;
        req_ts := !clock;
        sent := true;
        List.iter ask neighbors)
  in
  (* Answer pending requests whenever we neither hold the critical section
     nor outrank the requester. Running this as a guarded action (rather
     than inside the receive handler and the exit path) means the decision
     is re-evaluated as our own state changes — a request deferred during
     our meal is granted right after we return to thinking. *)
  let pending nb =
    nb.latest_req > nb.granted_upto
    && (match handle.Spec.phase with Types.Eating | Types.Exiting -> false | _ -> true)
    && not (my_priority_over nb.latest_req nb.peer)
  in
  let grant nb =
    if pending nb then begin
      nb.granted_upto <- nb.latest_req;
      ctx.Context.send ~dst:nb.peer ~tag:instance (Kf_grant nb.latest_req)
    end
  in
  let serve =
    Component.action "kf-serve"
      ~guard:(fun () -> List.exists pending neighbors)
      ~body:(fun () -> List.iter grant neighbors)
  in
  let granted_or_suspected nb = nb.granted || Types.Pidset.mem nb.peer (suspects ()) in
  let eat =
    Component.action "kf-eat"
      ~guard:(fun () ->
        hungry () && !sent && List.for_all granted_or_suspected neighbors)
      ~body:(fun () -> Spec.Cell.set cell Types.Eating)
  in
  let finish_exit =
    Component.action "kf-exit"
      ~guard:(fun () -> match handle.Spec.phase with Types.Exiting -> true | _ -> false)
      ~body:(fun () ->
        sent := false;
        Spec.Cell.set cell Types.Thinking)
  in
  let on_receive ~src msg =
    match neighbor_of src neighbors with
    | exception Not_found -> ()
    | nb -> (
        match msg with
        | Kf_req ts ->
            clock := Int.max !clock ts + 1;
            nb.latest_req <- Int.max nb.latest_req ts
        | Kf_grant ts ->
            (* Grants for superseded requests are stale; drop them. *)
            if !sent && ts = !req_ts then nb.granted <- true
        | _ -> ())
  in
  let comp =
    Component.make ~name:instance ~actions:[ request; serve; eat; finish_exit ] ~on_receive ()
  in
  let debug () =
    Printf.sprintf "req_ts=%d sent=%b clock=%d [%s]" !req_ts !sent !clock
      (String.concat " "
         (List.map
            (fun nb ->
              Printf.sprintf "%d:g=%b,req=%s,upto=%d" nb.peer nb.granted
                (if nb.latest_req = min_int then "-" else string_of_int nb.latest_req)
                nb.granted_upto)
            neighbors))
  in
  (comp, handle, debug)
