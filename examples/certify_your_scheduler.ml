(* Bring your own scheduler.

   The paper's theorem quantifies over *any* black-box WF-◇WX solution, so
   the box is a parameter of the checks: hand Check.Runner.certify a
   factory for your dining implementation and it checks (a) that the box
   behaves like WF-◇WX — wait-freedom past crashes, an eventually
   exclusive suffix — and (b) that the paper's reduction really extracts a
   working ◇P from it (both theorems + the Lemma 1-12 run-time monitors).

   Below we certify a scheduler written *in this file*: a naive
   token-passing mutex for two diners. It is perpetually exclusive and
   perfectly fair while everyone is alive — and it fails certification,
   because the token dies with its holder: no wait-freedom, hence nothing
   for the reduction's witnesses to eat past, hence no completeness.

     dune exec examples/certify_your_scheduler.exe *)

open Dsim

(* --- a user-written scheduler: circulate one token, eat while holding --- *)

type Msg.t += My_token

let naive_token_scheduler : Core.Scenario.box =
 fun _engine ctx ~instance ~participants ->
  let self = ctx.Context.self in
  let p, q = participants in
  let peer = if self = p then q else p in
  let cell = Dining.Spec.Cell.create ctx ~instance in
  let handle = Dining.Spec.Cell.handle cell in
  let have_token = ref (self = min p q) in
  let eat =
    Component.action "tok-eat"
      ~guard:(fun () ->
        (match handle.Dining.Spec.phase with Types.Hungry -> true | _ -> false)
        && !have_token)
      ~body:(fun () -> Dining.Spec.Cell.set cell Types.Eating)
  in
  let pass_on =
    (* Pass the token whenever we do not need it (thinking) or are
       done with it (exiting). *)
    Component.action "tok-pass"
      ~guard:(fun () ->
        !have_token
        && match handle.Dining.Spec.phase with
           | Types.Thinking | Types.Exiting -> true
           | _ -> false)
      ~body:(fun () ->
        have_token := false;
        ctx.Context.send ~dst:peer ~tag:instance My_token;
        match handle.Dining.Spec.phase with
        | Types.Exiting -> Dining.Spec.Cell.set cell Types.Thinking
        | _ -> ())
  in
  let on_receive ~src:_ msg =
    match msg with My_token -> have_token := true | _ -> ()
  in
  (Component.make ~name:instance ~actions:[ eat; pass_on ] ~on_receive (), handle)

(* The checks a box fails over [seeds] seeds, each with the run that
   shows it. *)
let failures box ~seeds =
  List.concat_map
    (fun ((c : Check.Config.t), checks) ->
      List.map
        (fun check -> Printf.sprintf "%s in %s" check (Check.Config.describe c))
        (Check.Runner.failed checks))
    (Check.Runner.certify box ~seeds:(Core.Batch.seeds seeds) ~horizon:20000)

let () =
  print_endline "=== certifying a user-written scheduler ===\n";
  let failed = failures naive_token_scheduler ~seeds:2 in
  Printf.printf "naive token ring (user-written, crash-oblivious): %s\n"
    (if failed = [] then "CERTIFIED" else "NOT certified");
  List.iter (Printf.printf "  failed %s\n") failed;
  print_endline
    "\nAs the theory predicts: perpetual exclusion and fairness are easy; it is\n\
     *wait-freedom despite crashes* that encapsulates ◇P — lose it and the\n\
     reduction has nothing to extract. Compare with the shipped boxes:";
  List.iter
    (fun (name, box) ->
      Printf.printf "  %-6s %s\n" name
        (if failures box ~seeds:1 = [] then "CERTIFIED" else "not certified"))
    (List.filter (fun (name, _) -> name <> "hygienic") Core.Scenario.boxes)
