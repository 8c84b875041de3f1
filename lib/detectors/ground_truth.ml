open Dsim

(* Both oracles poll the fault pattern from a guarded action so that
   suspicion flips appear in the trace at the tick they become visible. *)

type peer_obs = {
  peer : Types.pid;
  mutable dead_since : Types.time option;
  mutable suspected : bool;
  mutable answered : bool; (* in the set the last query returned *)
}

let make_polling (ctx : Context.t) ~detector_name ~comp_name ~peers ~should_suspect =
  let self = ctx.Context.self in
  let states =
    List.map
      (fun peer -> { peer; dead_since = None; suspected = false; answered = false })
      (List.filter (fun q -> q <> self) peers)
  in
  let observe st =
    if st.dead_since = None && not (ctx.Context.is_live st.peer) then
      st.dead_since <- Some (ctx.Context.now ())
  in
  let pending st =
    observe st;
    (not st.suspected) && should_suspect ~now:(ctx.Context.now ()) ~dead_since:st.dead_since
  in
  let poll =
    Component.action "oracle-poll"
      ~guard:(fun () -> List.exists pending states)
      ~body:(fun () ->
        List.iter
          (fun st ->
            if pending st then begin
              st.suspected <- true;
              ctx.Context.log
                (Trace.Suspect { detector = detector_name; owner = self; target = st.peer })
            end)
          states)
  in
  let comp = Component.make ~name:comp_name ~actions:[ poll ] () in
  (* Queries reflect the oracle's latest observation even between steps.
     [refresh] marks each peer's answer and tells whether any changed, so
     a query that finds the last one's suspects returns that set. *)
  let rec refresh changed = function
    | [] -> changed
    | st :: rest ->
        let suspected =
          st.suspected
          ||
          (observe st;
           should_suspect ~now:(ctx.Context.now ()) ~dead_since:st.dead_since)
        in
        let changed = changed || suspected <> st.answered in
        st.answered <- suspected;
        refresh changed rest
  in
  let last = ref Types.Pidset.empty in
  let suspects () =
    if refresh false states then
      last :=
        List.fold_left
          (fun acc st -> if st.answered then Types.Pidset.add st.peer acc else acc)
          Types.Pidset.empty states;
    !last
  in
  (comp, Oracle.make ~name:detector_name ~owner:self ~suspects)

let perfect ctx ?(detector_name = "perfect") ~peers () =
  make_polling ctx ~detector_name
    ~comp_name:(detector_name ^ "-mod")
    ~peers
    ~should_suspect:(fun ~now:_ ~dead_since -> dead_since <> None)

let trusting ctx ?(detector_name = "trusting") ?(detection_delay = 20) ~peers () =
  make_polling ctx ~detector_name
    ~comp_name:(detector_name ^ "-mod")
    ~peers
    ~should_suspect:(fun ~now ~dead_since ->
      match dead_since with Some t -> now - t >= detection_delay | None -> false)

let strong ctx ?(detector_name = "strong") ~peers () =
  let anchor = List.fold_left min max_int peers in
  make_polling ctx ~detector_name
    ~comp_name:(detector_name ^ "-mod")
    ~peers:(List.filter (fun q -> q <> anchor) peers)
    ~should_suspect:(fun ~now:_ ~dead_since -> dead_since <> None)
