(* Tests for the application substrates: contention-managed transactions
   (Sections 2-3) and WSN duty-cycle scheduling (Section 2). *)

open Dsim

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Contention management / obstruction-free boost *)

(* Process 0 hosts the store; processes 1..clients are transactional
   clients. *)
let ctm_run ?(seed = 51L) ?(adversary = Adversary.partial_sync ~gst:400 ()) ?(clients = 4)
    ?(compute_ticks = 6) ?(with_cm = true) ?(horizon = 10000) ?(crash = []) () =
  let engine = Engine.create ~seed ~n:(clients + 1) ~adversary () in
  let sys = Ctm.System.setup ~engine ~with_cm ~compute_ticks () in
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) crash;
  Engine.run engine ~until:horizon;
  (engine, sys.Ctm.System.store, sys.Ctm.System.clients)

let total f stats = List.fold_left (fun acc (_, st) -> acc + f st) 0 stats

let commits_before t stats =
  total
    (fun (st : Ctm.Client.stats) ->
      List.length (List.filter (fun ct -> ct <= t) st.Ctm.Client.commit_times))
    stats

let test_ctm_contention_without_manager () =
  let _, store_stats, stats = ctm_run ~with_cm:false () in
  let commits = total (fun st -> st.Ctm.Client.commits) stats in
  let aborts = total (fun st -> st.Ctm.Client.aborts) stats in
  check "transactions keep executing" true (commits > 0);
  check "contention causes many aborts" true (aborts > commits);
  check "store saw failures" true (store_stats.Ctm.Store.cas_fail > store_stats.Ctm.Store.cas_ok)

let test_ctm_manager_boosts_to_waitfree () =
  let _, _, stats = ctm_run ~with_cm:true () in
  let commits = total (fun st -> st.Ctm.Client.commits) stats in
  let aborts = total (fun st -> st.Ctm.Client.aborts) stats in
  check "plenty of commits" true (commits > 50);
  (* In the exclusive suffix every transaction runs alone: aborts are
     confined to the mistake-prone prefix. *)
  let early = commits_before 5000 stats in
  let late = commits - early in
  check "all clients keep committing in the suffix" true (late > 30);
  check "aborts bounded (prefix only)" true (aborts < commits / 2)

let test_ctm_every_client_commits () =
  let _, _, stats = ctm_run ~with_cm:true ~horizon:12000 () in
  List.iter
    (fun (pid, (st : Ctm.Client.stats)) ->
      check (Printf.sprintf "client %d commits" pid) true (st.Ctm.Client.commits > 5))
    stats

let test_ctm_survives_client_crash () =
  (* A client dies (possibly inside its critical section); the manager's
     wait-freedom keeps the others committing. *)
  let _, _, stats = ctm_run ~with_cm:true ~horizon:12000 ~crash:[ (2, 2000) ] () in
  List.iter
    (fun (pid, (st : Ctm.Client.stats)) ->
      if pid <> 2 then
        check
          (Printf.sprintf "client %d commits after the crash" pid)
          true
          (List.exists (fun t -> t > 6000) st.Ctm.Client.commit_times))
    stats

let test_ctm_store_consistency () =
  (* Version increments exactly once per successful CAS. *)
  let _, store_stats, stats = ctm_run ~with_cm:true ~horizon:6000 () in
  let commits = total (fun st -> st.Ctm.Client.commits) stats in
  check "commits = successful CAS" true (commits = store_stats.Ctm.Store.cas_ok)

(* ------------------------------------------------------------------ *)
(* WSN duty-cycle scheduling *)

let wsn_run ?(seed = 61L) ?(config = Wsn.Model.default_config) ~scheduler ~horizon () =
  let n = config.Wsn.Model.areas * config.Wsn.Model.nodes_per_area in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) () in
  let model = Wsn.Model.setup ~engine ~config ~scheduler () in
  Engine.run engine ~until:horizon;
  model

let test_wsn_all_on_lifetime () =
  let model = wsn_run ~scheduler:Wsn.Model.All_on ~horizon:3000 () in
  match Wsn.Model.lifetime model with
  | None -> Alcotest.fail "all-on network should have died"
  | Some t ->
      (* One battery's worth (600 duty ticks) plus start-up slack. *)
      check "lifetime ~ one battery" true (t >= 600 && t < 900)

let test_wsn_dining_extends_lifetime () =
  let all_on = wsn_run ~scheduler:Wsn.Model.All_on ~horizon:3000 () in
  let dining = wsn_run ~scheduler:Wsn.Model.Dining ~horizon:9000 () in
  let t_all_on =
    match Wsn.Model.lifetime all_on with Some t -> t | None -> 3000
  in
  let t_dining =
    match Wsn.Model.lifetime dining with Some t -> t | None -> 9000
  in
  check "duty cycling at least doubles the lifetime" true (t_dining > 2 * t_all_on)

(* Big batteries so the observation window is disjoint from both the
   detector's convergence prefix and the network's end of life. *)
let long_lived_config =
  { Wsn.Model.default_config with Wsn.Model.initial_energy = 3000 }

let test_wsn_redundancy_vanishes () =
  let model = wsn_run ~config:long_lived_config ~scheduler:Wsn.Model.Dining ~horizon:5000 () in
  let series = Wsn.Model.coverage_series model ~sample_every:50 ~horizon:5000 in
  (* After the detector converges (and long before batteries fade), no two
     same-area nodes are on duty together. *)
  let late =
    List.filter (fun s -> s.Wsn.Model.at > 1500 && s.Wsn.Model.at < 4500) series
  in
  check "samples exist" true (late <> []);
  check "everyone still alive in the window" true
    (List.for_all (fun s -> s.Wsn.Model.alive = 9) late);
  List.iter
    (fun s ->
      if s.Wsn.Model.redundant > 0 then
        Alcotest.failf "redundant duty at t=%d after convergence" s.Wsn.Model.at)
    late

let test_wsn_coverage_maintained () =
  let model = wsn_run ~config:long_lived_config ~scheduler:Wsn.Model.Dining ~horizon:5000 () in
  let series = Wsn.Model.coverage_series model ~sample_every:50 ~horizon:5000 in
  let late = List.filter (fun s -> s.Wsn.Model.at > 1000 && s.Wsn.Model.at < 4500) series in
  let avg =
    float_of_int (List.fold_left (fun acc s -> acc + s.Wsn.Model.covered) 0 late)
    /. float_of_int (max 1 (List.length late))
  in
  let areas = float_of_int Wsn.Model.default_config.Wsn.Model.areas in
  check "most areas covered most of the time" true (avg >= 0.5 *. areas)

let test_wsn_energy_accounting () =
  let model = wsn_run ~scheduler:Wsn.Model.All_on ~horizon:100 () in
  (* After 100 ticks always-on, every battery lost ~100 units. *)
  Array.iteri
    (fun pid e ->
      check (Printf.sprintf "node %d drained" pid) true (e <= 520 && e >= 480))
    model.Wsn.Model.energy

let () =
  Alcotest.run "apps"
    [
      ( "ctm",
        [
          Alcotest.test_case "contention without manager" `Quick
            test_ctm_contention_without_manager;
          Alcotest.test_case "manager boosts to wait-free" `Quick
            test_ctm_manager_boosts_to_waitfree;
          Alcotest.test_case "every client commits" `Quick test_ctm_every_client_commits;
          Alcotest.test_case "survives client crash" `Quick test_ctm_survives_client_crash;
          Alcotest.test_case "store consistency" `Quick test_ctm_store_consistency;
        ] );
      ( "wsn",
        [
          Alcotest.test_case "all-on lifetime" `Quick test_wsn_all_on_lifetime;
          Alcotest.test_case "dining extends lifetime" `Quick test_wsn_dining_extends_lifetime;
          Alcotest.test_case "redundancy vanishes" `Quick test_wsn_redundancy_vanishes;
          Alcotest.test_case "coverage maintained" `Quick test_wsn_coverage_maintained;
          Alcotest.test_case "energy accounting" `Quick test_wsn_energy_accounting;
        ] );
    ]
