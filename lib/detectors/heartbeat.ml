open Dsim

type config = {
  period : int;
  initial_timeout : int;
  adaptive : bool;
}

let default_config = { period = 4; initial_timeout = 24; adaptive = true }

type Msg.t += Hb_msg

type peer_state = {
  peer : Types.pid;
  mutable last_heard : Types.time;
  mutable timeout : int;
  mutable suspected : bool;
}

(* The state of [src], found without building a closure or an option per
   heartbeat. *)
let rec state_of src = function
  | [] -> raise Not_found
  | st :: rest -> if st.peer = src then st else state_of src rest

let component (ctx : Context.t) ?(detector_name = "evp") ?(tag = "fd")
    ?(config = default_config) ~peers () =
  let self = ctx.Context.self in
  let states =
    List.map
      (fun peer -> { peer; last_heard = 0; timeout = config.initial_timeout; suspected = false })
      (List.filter (fun q -> q <> self) peers)
  in
  (* The peers flagged [suspected], kept as a set that changes only when a
     flag flips, so [suspects] (asked by the dining guards on every
     evaluation) returns it without building one. *)
  let suspected_set = ref Types.Pidset.empty in
  let next_send = ref 0 in
  let beat st = ctx.Context.send ~dst:st.peer ~tag Hb_msg in
  let send_heartbeats =
    Component.action "hb-send"
      ~guard:(fun () -> ctx.Context.now () >= !next_send)
      ~body:(fun () ->
        next_send := ctx.Context.now () + config.period;
        List.iter beat states)
  in
  let expired st = (not st.suspected) && ctx.Context.now () - st.last_heard > st.timeout in
  let suspect_if_expired st =
    if expired st then begin
      st.suspected <- true;
      suspected_set := Types.Pidset.add st.peer !suspected_set;
      ctx.Context.log (Trace.Suspect { detector = detector_name; owner = self; target = st.peer })
    end
  in
  let check_timeouts =
    Component.action "hb-check"
      ~guard:(fun () -> List.exists expired states)
      ~body:(fun () -> List.iter suspect_if_expired states)
  in
  let on_receive ~src = function
    | Hb_msg -> (
        match state_of src states with
        | exception Not_found -> ()
        | st ->
            st.last_heard <- ctx.Context.now ();
            if st.suspected then begin
              st.suspected <- false;
              suspected_set := Types.Pidset.remove st.peer !suspected_set;
              if config.adaptive then st.timeout <- st.timeout * 2;
              ctx.Context.log
                (Trace.Trust { detector = detector_name; owner = self; target = st.peer })
            end)
    | _ -> ()
  in
  let comp =
    Component.make ~name:tag ~actions:[ send_heartbeats; check_timeouts ] ~on_receive ()
  in
  let suspects () = !suspected_set in
  (comp, Oracle.make ~name:detector_name ~owner:self ~suspects)
