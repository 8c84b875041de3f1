open Dsim

type Msg.t +=
  | Cs_estimate of { round : int; est : int; ts : int }
  | Cs_propose of { round : int; v : int }
  | Cs_ack of { round : int; ok : bool }
  | Cs_decide of int

type stage = Idle | Wait_propose

(* Per-round coordinator bookkeeping. *)
type coord_round = {
  mutable estimates : (int * int) list; (* (est, ts), one per sender *)
  mutable proposed : int option;
  mutable positive_acks : int;
  mutable negative_acks : int;
}

type t = {
  propose : int -> unit;
  decided : unit -> int option;
  round : unit -> int;
  component : Component.t;
}

let create (ctx : Context.t) ?(tag = "consensus") ~members ~suspects () =
  let members = List.sort_uniq compare members in
  let n = List.length members in
  if n < 2 then invalid_arg "Consensus.create: need at least two members";
  let self = ctx.Context.self in
  if not (List.mem self members) then invalid_arg "Consensus.create: self not a member";
  let majority = (n / 2) + 1 in
  let coord r = List.nth members (r mod n) in
  let bcast m = List.iter (fun q -> ctx.Context.send ~dst:q ~tag m) members in
  (* participant state. The initial timestamp lies strictly below every
     round number: an estimate adopted from round r carries ts = r, and the
     locking argument needs those to dominate never-adopted estimates —
     with ts0 = round0 = 0 a later coordinator could break ties against a
     decided value and violate agreement. *)
  let estimate = ref None in
  let ts = ref (-1) in
  let round = ref 0 in
  let stage = ref Idle in
  let decided = ref None in
  let decision_forwarded = ref false in
  (* coordinator state, indexed by round *)
  let rounds : (int, coord_round) Hashtbl.t = Hashtbl.create 8 in
  let coord_round r =
    match Hashtbl.find_opt rounds r with
    | Some cr -> cr
    | None ->
        let cr = { estimates = []; proposed = None; positive_acks = 0; negative_acks = 0 } in
        Hashtbl.add rounds r cr;
        cr
  in
  (* pending proposals received ahead of our own round *)
  let proposals : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let decide v =
    if !decided = None then begin
      decided := Some v;
      ctx.Context.log
        (Trace.Note { pid = self; label = "decide"; info = string_of_int v })
    end
  in
  let running () = !decided = None && !estimate <> None in
  (* Phase 1: open the round by shipping our estimate to its coordinator. *)
  let send_estimate =
    Component.action "cs-estimate"
      ~guard:(fun () -> running () && !stage = Idle)
      ~body:(fun () ->
        match !estimate with
        | Some est ->
            stage := Wait_propose;
            ctx.Context.send ~dst:(coord !round) ~tag
              (Cs_estimate { round = !round; est; ts = !ts })
        | None -> ())
  in
  (* Phase 3: adopt the coordinator's proposal, or give up on a suspected
     coordinator and move on. *)
  let adopt_proposal =
    Component.action "cs-adopt"
      ~guard:(fun () -> running () && !stage = Wait_propose && Hashtbl.mem proposals !round)
      ~body:(fun () ->
        let v = Hashtbl.find proposals !round in
        estimate := Some v;
        ts := !round;
        ctx.Context.send ~dst:(coord !round) ~tag (Cs_ack { round = !round; ok = true });
        stage := Idle;
        incr round)
  in
  let abandon_coordinator =
    Component.action "cs-abandon"
      ~guard:(fun () ->
        running () && !stage = Wait_propose
        && Types.Pidset.mem (coord !round) (suspects ())
        && not (Hashtbl.mem proposals !round))
      ~body:(fun () ->
        ctx.Context.send ~dst:(coord !round) ~tag (Cs_ack { round = !round; ok = false });
        stage := Idle;
        incr round)
  in
  (* Coordinator bookkeeping lives in a hash table, but everything the
     actions *do* with it walks rounds in ascending key order: emission
     order of Cs_propose/Cs_decide must be a function of the protocol state,
     never of the table's hash layout. *)
  let sorted_rounds () =
    Hashtbl.fold (fun r cr acc -> (r, cr) :: acc) rounds []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let ready_to_propose (r, cr) =
    coord r = self && cr.proposed = None && List.length cr.estimates >= majority
  in
  let ready_to_decide (r, cr) =
    coord r = self && cr.proposed <> None && cr.positive_acks >= majority
  in
  (* Phase 2 (coordinator): propose the highest-timestamp estimate once a
     majority reported. *)
  let coordinate =
    Component.action "cs-coordinate"
      ~guard:(fun () -> !decided = None && List.exists ready_to_propose (sorted_rounds ()))
      ~body:(fun () ->
        List.iter
          (fun ((r, cr) as rc) ->
            if ready_to_propose rc then begin
              let v, _ =
                List.fold_left
                  (fun (bv, bt) (v, t) -> if t > bt then (v, t) else (bv, bt))
                  (List.hd cr.estimates) (List.tl cr.estimates)
              in
              cr.proposed <- Some v;
              bcast (Cs_propose { round = r; v })
            end)
          (sorted_rounds ()))
  in
  (* Phase 4 (coordinator): a majority of positive acks decides. *)
  let conclude =
    Component.action "cs-conclude"
      ~guard:(fun () -> !decided = None && List.exists ready_to_decide (sorted_rounds ()))
      ~body:(fun () ->
        List.iter
          (fun ((_, cr) as rc) ->
            if ready_to_decide rc then
              match cr.proposed with Some v -> decide v | None -> ())
          (sorted_rounds ()))
  in
  (* Reliable broadcast of the decision: forward it once. *)
  let spread_decision =
    Component.action "cs-spread"
      ~guard:(fun () -> !decided <> None && not !decision_forwarded)
      ~body:(fun () ->
        decision_forwarded := true;
        match !decided with Some v -> bcast (Cs_decide v) | None -> ())
  in
  let on_receive ~src:_ msg =
    match msg with
    | Cs_estimate { round = r; est; ts = t } ->
        let cr = coord_round r in
        cr.estimates <- (est, t) :: cr.estimates
    | Cs_propose { round = r; v } -> if not (Hashtbl.mem proposals r) then Hashtbl.add proposals r v
    | Cs_ack { round = r; ok } ->
        let cr = coord_round r in
        if ok then cr.positive_acks <- cr.positive_acks + 1
        else cr.negative_acks <- cr.negative_acks + 1
    | Cs_decide v -> decide v
    | _ -> ()
  in
  let component =
    Component.make ~name:tag
      ~actions:
        [ send_estimate; adopt_proposal; abandon_coordinator; coordinate; conclude;
          spread_decision ]
      ~on_receive ()
  in
  {
    propose = (fun v -> if !estimate = None then estimate := Some v);
    decided = (fun () -> !decided);
    round = (fun () -> !round);
    component;
  }

let decisions trace =
  Trace.notes ~label:"decide" trace
  |> List.filter_map (fun (e : Trace.entry) ->
         match e.ev with
         | Trace.Note n -> Some (n.pid, e.at, int_of_string n.info)
         | _ -> None)

let agreement trace =
  let ds = decisions trace in
  let values = List.sort_uniq compare (List.map (fun (_, _, v) -> v) ds) in
  let details =
    if List.length values <= 1 then []
    else
      [
        Printf.sprintf "conflicting decisions: %s"
          (String.concat ", "
             (List.map (fun (p, t, v) -> Printf.sprintf "p%d@%d=%d" p t v) ds));
      ]
  in
  { Detectors.Properties.holds = details = []; details }
