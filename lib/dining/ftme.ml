open Dsim

(* A grant is identified by (server epoch, serial): releases and in-CS
   status reports carry the id, so a storm-delayed release of an *earlier*
   session can never be mistaken for the release of a current grant (that
   confusion both un-gated the server's one-at-a-time grant discipline and
   let stale releases stand in for recovery answers — a real double-grant
   observed under the bursty adversary during development). *)
type grant_id = int * int

type Msg.t +=
  | Fx_req
  | Fx_grant of grant_id
  | Fx_release of grant_id
  | Fx_recover of int (* new server's epoch *)
  | Fx_status of { in_cs : grant_id option; waiting : bool }

(* Whether [q] is queued at or after index [i]. *)
let rec queued (q : Types.pid) queue i =
  i < Vec.length queue && (Vec.get queue i = q || queued q queue (i + 1))

let component (ctx : Context.t) ~instance ~members ~suspects () =
  let members = List.sort_uniq compare members in
  (match members with
  | [] | [ _ ] -> invalid_arg "Ftme.component: need at least two members"
  | _ -> ());
  if not (List.mem ctx.Context.self members) then
    invalid_arg "Ftme.component: self not a member";
  let self = ctx.Context.self in
  let cell = Spec.Cell.create ctx ~instance in
  let handle = Spec.Cell.handle cell in
  let hungry () = match handle.Spec.phase with Types.Hungry -> true | _ -> false in
  let others = List.filter (fun q -> q <> self) members in
  let suspected q = Types.Pidset.mem q (suspects ()) in
  (* The believed server: the lowest member not currently suspected.
     Trusting accuracy keeps this safe; strong completeness keeps it live.
     The walk is built once here, so the guards that ask build nothing. *)
  let rec first_trusted = function
    | [] -> self
    | p :: rest -> if p = self || not (suspected p) then p else first_trusted rest
  in
  let believed_server () = first_trusted members in
  (* ---- client state ---- *)
  let sent_to = ref None in
  let max_epoch_seen = ref 0 in
  let current_grant = ref None in
  (* ---- server state (meaningful once [activated]) ---- *)
  let activated = ref (self = List.hd members) in
  let recovering = ref false in
  let answered = Hashtbl.create 8 in
  let queue : Types.pid Vec.t = Vec.create () in
  let granted_to : (Types.pid * grant_id) option ref = ref None in
  (* Release ids already seen. A status reply reporting "in CS with grant g"
     can be overtaken by g's own release (non-FIFO channels); installing g
     after its release has already been consumed would block the server
     forever. One entry per grant ever issued — fine for a simulator. *)
  let released : (grant_id, unit) Hashtbl.t = Hashtbl.create 32 in
  let serial = ref 0 in
  let note label info = ctx.Context.log (Trace.Note { pid = self; label; info }) in
  (* Dedup only against the queue itself. A request from the *currently
     granted* process must still be enqueued: on non-FIFO channels a
     client's next request can overtake its release broadcast, and clients
     do not resend while their believed server is unchanged. *)
  let enqueue q =
    if not (queued q queue 0) then begin
      note "fx-enq" (string_of_int q);
      Vec.add_last queue q
    end
  in
  let dequeue () =
    let head = Vec.get queue 0 in
    for k = 1 to Vec.length queue - 1 do
      Vec.set queue (k - 1) (Vec.get queue k)
    done;
    Vec.remove_last queue;
    head
  in
  let i_am_server () = believed_server () = self in
  (* ---- client actions ---- *)
  let send_request =
    Component.action "fx-request"
      ~guard:(fun () ->
        hungry ()
        && (match !sent_to with Some s -> s <> believed_server () | None -> true))
      ~body:(fun () ->
        let srv = believed_server () in
        sent_to := Some srv;
        if srv = self then enqueue self
        else ctx.Context.send ~dst:srv ~tag:instance Fx_req)
  in
  let finish_exit =
    Component.action "fx-exit"
      ~guard:(fun () -> match handle.Spec.phase with Types.Exiting -> true | _ -> false)
      ~body:(fun () ->
        sent_to := None;
        (match !current_grant with
        | Some id ->
            current_grant := None;
            (* Broadcast the release: the grantor may have changed since. *)
            List.iter (fun q -> ctx.Context.send ~dst:q ~tag:instance (Fx_release id)) others;
            (match !granted_to with
            | Some (q, gid) when q = self && gid = id -> granted_to := None
            | Some _ | None -> ())
        | None -> ());
        Spec.Cell.set cell Types.Thinking)
  in
  (* ---- server actions ---- *)
  let take_over =
    Component.action "fx-take-over"
      ~guard:(fun () -> (not !activated) && i_am_server ())
      ~body:(fun () ->
        activated := true;
        recovering := true;
        Hashtbl.reset answered;
        List.iter (fun q -> ctx.Context.send ~dst:q ~tag:instance (Fx_recover self)) others)
  in
  let recovery_done () =
    List.for_all (fun q -> Hashtbl.mem answered q || suspected q) others
    && (match !granted_to with Some (q, _) -> q = self || not (suspected q) | None -> true)
  in
  let finish_recovery =
    Component.action "fx-finish-recovery"
      ~guard:(fun () -> !activated && !recovering && recovery_done ())
      ~body:(fun () -> recovering := false)
  in
  let reap_dead_holder =
    (* A grantee that crashed in its critical section is no longer live:
       weak exclusion permits granting past it. *)
    Component.action "fx-reap"
      ~guard:(fun () ->
        !activated
        && match !granted_to with Some (q, _) -> q <> self && suspected q | None -> false)
      ~body:(fun () -> granted_to := None)
  in
  let serve =
    Component.action "fx-serve"
      ~guard:(fun () ->
        !activated && (not !recovering) && !granted_to = None && Vec.length queue > 0
        && (Vec.get queue 0 <> self || hungry ()))
      ~body:(fun () ->
        let head = dequeue () in
        incr serial;
        let id = (self, !serial) in
        note "fx-grant" (string_of_int head);
        granted_to := Some (head, id);
        if head = self then begin
          current_grant := Some id;
          Spec.Cell.set cell Types.Eating
        end
        else ctx.Context.send ~dst:head ~tag:instance (Fx_grant id))
  in
  let on_receive ~src msg =
    match msg with
    | Fx_req ->
        (* Queue even if not (yet) the active server: a request can arrive
           before this process has noticed it is next in line, and the
           client will not resend while its believed server is unchanged. *)
        enqueue src
    | Fx_grant ((epoch, _) as id) ->
        if epoch >= !max_epoch_seen && hungry () then begin
          max_epoch_seen := epoch;
          current_grant := Some id;
          Spec.Cell.set cell Types.Eating
        end
        else
          (* Unusable (stale epoch, or we are no longer asking): decline it
             so the grantor's one-at-a-time bookkeeping is not left hanging
             on a release that will never come. *)
          ctx.Context.send ~dst:src ~tag:instance (Fx_release id)
    | Fx_release id -> (
        Hashtbl.replace released id ();
        match !granted_to with
        | Some (_, gid) when gid = id -> granted_to := None
        | Some _ | None -> ())
    | Fx_recover epoch ->
        if epoch > !max_epoch_seen then max_epoch_seen := epoch;
        let in_cs =
          match handle.Spec.phase with
          | Types.Eating | Types.Exiting -> !current_grant
          | _ -> None
        in
        let waiting = hungry () in
        if waiting then sent_to := Some src;
        ctx.Context.send ~dst:src ~tag:instance (Fx_status { in_cs; waiting })
    | Fx_status { in_cs; waiting } ->
        if !activated then begin
          Hashtbl.replace answered src ();
          (match in_cs with
          | Some id when not (Hashtbl.mem released id) -> granted_to := Some (src, id)
          | Some _ | None -> ());
          if waiting then enqueue src
        end
    | _ -> ()
  in
  let comp =
    Component.make ~name:instance
      ~actions:[ send_request; finish_exit; take_over; finish_recovery; reap_dead_holder; serve ]
      ~on_receive ()
  in
  let debug () =
    Printf.sprintf "p%d act=%b rec=%b granted=%s queue=[%s] sent_to=%s believed=%d" self
      !activated !recovering
      (match !granted_to with
      | Some (q, (e, s)) -> Printf.sprintf "%d(id=%d.%d)" q e s
      | None -> "-")
      (String.concat ";" (List.map string_of_int (Vec.to_list queue)))
      (match !sent_to with Some q -> string_of_int q | None -> "-")
      (believed_server ())
  in
  (comp, handle, debug)
