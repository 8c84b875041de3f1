open Dsim

type config = {
  period : int;
  initial_timeout : int;
  adaptive : bool;
}

let default_config = { period = 6; initial_timeout = 32; adaptive = true }

type Msg.t += Query of int | Response of int

type peer_state = {
  peer : Types.pid;
  mutable round : int;  (** Last query round sent to this peer. *)
  mutable asked_at : Types.time;
  mutable answered : bool;  (** Response to [round] received. *)
  mutable timeout : int;
  mutable suspected : bool;
}

let component (ctx : Context.t) ?(detector_name = "evp-pp") ?(tag = "fdpp")
    ?(config = default_config) ~peers () =
  let self = ctx.Context.self in
  let states =
    List.map
      (fun peer ->
        { peer; round = 0; asked_at = 0; answered = true; timeout = config.initial_timeout;
          suspected = false })
      (List.filter (fun q -> q <> self) peers)
  in
  let next_round = ref 0 in
  let send_queries =
    Component.action "pp-query"
      ~guard:(fun () -> ctx.Context.now () >= !next_round)
      ~body:(fun () ->
        next_round := ctx.Context.now () + config.period;
        List.iter
          (fun st ->
            (* A new round only opens once the previous one resolved (answer
               or suspicion): an unanswered round stays the one we time. *)
            if st.answered || st.suspected then begin
              st.round <- st.round + 1;
              st.asked_at <- ctx.Context.now ();
              st.answered <- false;
              ctx.Context.send ~dst:st.peer ~tag (Query st.round)
            end)
          states)
  in
  let overdue st =
    (not st.suspected) && (not st.answered)
    && ctx.Context.now () - st.asked_at > st.timeout
  in
  let check_timeouts =
    Component.action "pp-check"
      ~guard:(fun () -> List.exists overdue states)
      ~body:(fun () ->
        List.iter
          (fun st ->
            if overdue st then begin
              st.suspected <- true;
              ctx.Context.log
                (Trace.Suspect { detector = detector_name; owner = self; target = st.peer })
            end)
          states)
  in
  let on_receive ~src msg =
    match msg with
    | Query r ->
        (* Answer immediately; the responder needs no monitor state. *)
        ctx.Context.send ~dst:src ~tag (Response r)
    | Response r -> (
        match List.find_opt (fun st -> st.peer = src) states with
        | None -> ()
        | Some st ->
            if r = st.round then st.answered <- true;
            if st.suspected then begin
              st.suspected <- false;
              if config.adaptive then st.timeout <- st.timeout * 2;
              ctx.Context.log
                (Trace.Trust { detector = detector_name; owner = self; target = st.peer })
            end)
    | _ -> ()
  in
  let comp = Component.make ~name:tag ~actions:[ send_queries; check_timeouts ] ~on_receive () in
  let suspects () =
    List.fold_left
      (fun acc st -> if st.suspected then Types.Pidset.add st.peer acc else acc)
      Types.Pidset.empty states
  in
  (comp, Oracle.make ~name:detector_name ~owner:self ~suspects)
