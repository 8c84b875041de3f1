open Dsim

type stats = {
  mutable attempts : int;
  mutable commits : int;
  mutable aborts : int;
  mutable commit_times : Types.time list;
}

type tx_state =
  | Idle
  | Awaiting_cs  (** Hungry in the contention manager. *)
  | Read_sent
  | Computing of { until : Types.time; version : int; value : int }
  | Cas_sent

let component (ctx : Context.t) ~store ?cm ?(compute_ticks = 4) () =
  let stats = { attempts = 0; commits = 0; aborts = 0; commit_times = [] } in
  let state = ref Idle in
  let send_read () =
    stats.attempts <- stats.attempts + 1;
    state := Read_sent;
    ctx.Context.send ~dst:store ~tag:Store.tag Store.Read_req
  in
  let in_cs () =
    match cm with
    | None -> true
    | Some (h : Dining.Spec.handle) -> (
        match h.Dining.Spec.phase with Types.Eating -> true | _ -> false)
  in
  let start_tx =
    Component.action "tx-start"
      ~guard:(fun () -> !state = Idle)
      ~body:(fun () ->
        match cm with
        | None -> send_read ()
        | Some h -> (
            state := Awaiting_cs;
            match h.Dining.Spec.phase with Types.Thinking -> Dining.Spec.hungry h | _ -> ()))
  in
  let cs_granted =
    Component.action "tx-cs-granted"
      ~guard:(fun () -> !state = Awaiting_cs && in_cs ())
      ~body:(fun () -> send_read ())
  in
  let compute_done =
    Component.action "tx-commit"
      ~guard:(fun () ->
        match !state with
        | Computing { until; _ } -> ctx.Context.now () >= until
        | Idle | Awaiting_cs | Read_sent | Cas_sent -> false)
      ~body:(fun () ->
        match !state with
        | Computing { version; value; _ } ->
            state := Cas_sent;
            ctx.Context.send ~dst:store ~tag:Store.tag
              (Store.Cas_req { expect = version; value = value + 1 })
        | Idle | Awaiting_cs | Read_sent | Cas_sent -> ())
  in
  let on_receive ~src msg =
    if src = store then
      match msg with
      | Store.Read_resp { version; value } ->
          if !state = Read_sent then
            state :=
              Computing { until = ctx.Context.now () + compute_ticks; version; value }
      | Store.Cas_resp { ok; version = _ } ->
          if !state = Cas_sent then
            if ok then begin
              stats.commits <- stats.commits + 1;
              stats.commit_times <- ctx.Context.now () :: stats.commit_times;
              state := Idle;
              match cm with
              | Some ({ Dining.Spec.phase = Types.Eating; _ } as h) -> Dining.Spec.exit_eating h
              | Some _ | None -> ()
            end
            else begin
              stats.aborts <- stats.aborts + 1;
              (* Retry. Under a contention manager the critical section is
                 kept across retries: commit is what releases it. *)
              send_read ()
            end
      | _ -> ()
  in
  let comp =
    Component.make ~name:Store.client_tag
      ~actions:[ start_tx; cs_granted; compute_done ]
      ~on_receive ()
  in
  (comp, stats)
