(* Protocol-conformance analysis (rules D016/D017/D018).

   D016 — phase-transition legality. The paper's diner state machine is a
   single 4-cycle, exported as data from [Dining.Spec.legal_transitions];
   this pass checks every syntactic phase *write* against it. A write is a
   [Cell.set cell Types.Eating]-shaped call, a [x.phase <- Lit] /
   [x.cur <- Lit] field assignment, or a [{ e with phase = Lit }]
   functional update whose new phase is a literal constructor. The *from*
   side is recovered from the tests that dominate the write: phase
   literals in the enclosing [if] condition, the [Component.action ~guard]
   of the action whose [~body] contains the write, the matched phase
   constructors of an enclosing [match] arm, and references to local
   helpers whose body mentions exactly one phase literal (the
   [let hungry () = phase_equal (phase ()) Types.Hungry] idiom). A phase
   write in sequence position re-anchors the tests for the rest of the
   sequence, so [set cell Hungry; set cell Eating] under a Thinking guard
   is read as two legal hops. Writes with *no* dominating phase test are
   skipped (unanchored — the pass refuses to guess), and negation is not
   modelled; both are deliberate precision-over-recall trades, documented
   in DESIGN.md.

   D017 — fork-token conservation. Fork-carrying constructors (declared
   [Msg.t] constructors whose name contains "fork" or "token") must be
   conserved: a top-level binding that sends one without anywhere clearing
   local ownership (a [<- false] on a fork-ish mutable field, or
   [flag := false]) duplicates the token; a handler arm that consumes one
   without recording ownership ([<- true] on a fork-ish field) or
   forwarding it leaks the token. Granularity is the whole top-level
   binding — ordering between the clear and the send is not checked.

   D018 — worker-PRNG derivation. The [Exec.Pool] determinism contract
   (DESIGN.md, "Parallel execution & determinism contract") requires every
   worker to be a pure function of its index; the only sanctioned way to
   randomness inside a worker is [Prng.derive root_seed ~index]. A worker
   closure passed to a [Pool.map]/[Pool.iter] dispatch that calls
   [Prng.create]/[Prng.split]/[Prng.copy] directly, or that captures a
   local born from one of those, makes the draw sequence depend on domain
   scheduling and is flagged at the offending site. *)

module SS = Set.Make (String)

let cap_phase p = String.capitalize_ascii (Dsim.Types.phase_to_string p)

(* The ground truth, shared with the runtime monitors: constructor-name
   pairs derived from the relation [lib/dining/spec.ml] exports. *)
let default_legal =
  List.map (fun (a, b) -> (cap_phase a, cap_phase b)) Dining.Spec.legal_transitions

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n > 0 && go 0

let forkish name =
  let lc = String.lowercase_ascii name in
  contains ~sub:"fork" lc || contains ~sub:"token" lc

let last_segment li = match List.rev (Rules.flatten li) with s :: _ -> Some s | _ -> None

let prng_heads = [ "Prng.create"; "Prng.split"; "Prng.copy" ]

let findings ?(legal = default_legal) (inputs : Callgraph.input list) : Finding.t list =
  let phases =
    List.fold_left (fun s (a, b) -> SS.add a (SS.add b s)) SS.empty legal
  in
  let cycle =
    (* Human-facing rendering of the relation, e.g.
       "Thinking->Hungry, Hungry->Eating, ...". *)
    String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) legal)
  in
  let fork_ctors =
    List.fold_left
      (fun s (d : Msgflow.decl) -> if forkish d.Msgflow.ctor then SS.add d.Msgflow.ctor s else s)
      SS.empty (Msgflow.declared inputs)
  in
  let out = ref [] in
  let report ?sym ~rel ~loc ~rule msg =
    let line, col = Callgraph.pos_of loc in
    let f = Finding.make ~rule ~file:rel ~line ~col ~msg in
    out := (match sym with Some s -> Finding.with_sym s f | None -> f) :: !out
  in
  (* A constant phase-constructor literal, e.g. [Types.Eating]. *)
  let phase_lit (e : Parsetree.expression) =
    match (Callgraph.peel e).Parsetree.pexp_desc with
    | Parsetree.Pexp_construct ({ txt; _ }, None) -> (
        match last_segment txt with Some s when SS.mem s phases -> Some s | _ -> None)
    | _ -> None
  in
  let bool_lit name (e : Parsetree.expression) =
    match (Callgraph.peel e).Parsetree.pexp_desc with
    | Parsetree.Pexp_construct ({ txt = Longident.Lident b; _ }, None) -> b = name
    | _ -> false
  in
  let walk_input (inp : Callgraph.input) =
    let rel = inp.Callgraph.rel in
    Callgraph.iter_bindings inp (fun ~id ~is_rec:_ body ->
        (* ---------------- D016: phase-transition legality ---------------- *)
        (* Local helpers whose body mentions exactly one phase literal act
           as phase tests when referenced ([let hungry () = ... Hungry]).
           Scope-blind (no shadow tracking): acceptable for a lint. *)
        let helpers : (string, string) Hashtbl.t = Hashtbl.create 8 in
        let phase_lits_of (e : Parsetree.expression) =
          let acc = ref SS.empty in
          let expr it (e : Parsetree.expression) =
            (match phase_lit e with Some s -> acc := SS.add s !acc | None -> ());
            Ast_iterator.default_iterator.Ast_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
          it.Ast_iterator.expr it e;
          !acc
        in
        (* Phase tests established by a condition: literals plus helper
           references. Negation-blind. *)
        let tests_of (e : Parsetree.expression) =
          let acc = ref (phase_lits_of e) in
          let expr it (e : Parsetree.expression) =
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } -> (
                match Hashtbl.find_opt helpers n with
                | Some ph -> acc := SS.add ph !acc
                | None -> ())
            | _ -> ());
            Ast_iterator.default_iterator.Ast_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
          it.Ast_iterator.expr it e;
          !acc
        in
        let pat_phases (p : Parsetree.pattern) =
          let acc = ref SS.empty in
          let pat it (p : Parsetree.pattern) =
            (match p.Parsetree.ppat_desc with
            | Parsetree.Ppat_construct ({ txt; _ }, None) -> (
                match last_segment txt with
                | Some s when SS.mem s phases -> acc := SS.add s !acc
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.Ast_iterator.pat it p
          in
          let it = { Ast_iterator.default_iterator with pat } in
          it.Ast_iterator.pat it p;
          !acc
        in
        (* The written phase, when [e] is a phase-write site. *)
        let write_to (e : Parsetree.expression) =
          match (Callgraph.peel e).Parsetree.pexp_desc with
          | Parsetree.Pexp_apply (f, args) -> (
              match Rules.path_of_expr f with
              | Some p when Escape.tail2 p = "Cell.set" ->
                  List.find_map
                    (fun (l, a) -> if l = Asttypes.Nolabel then phase_lit a else None)
                    args
              | _ -> None)
          | Parsetree.Pexp_setfield (_, { txt; _ }, rhs) -> (
              match last_segment txt with
              | Some ("phase" | "cur") -> phase_lit rhs
              | _ -> None)
          | Parsetree.Pexp_record (fields, Some _) ->
              List.find_map
                (fun (({ txt; _ } : Longident.t Location.loc), v) ->
                  match last_segment txt with
                  | Some ("phase" | "cur") -> phase_lit v
                  | _ -> None)
                fields
          | _ -> None
        in
        let check_write tests (e : Parsetree.expression) =
          match write_to e with
          | Some to_ when not (SS.is_empty tests) ->
              let illegal = SS.filter (fun from_ -> not (List.mem (from_, to_) legal)) tests in
              SS.iter
                (fun from_ ->
                  report
                    ~sym:(Printf.sprintf "%s:%s->%s:phase" id from_ to_)
                    ~rel ~loc:e.Parsetree.pexp_loc ~rule:"D016"
                    (Printf.sprintf
                       "phase write %s -> %s in %s is outside the paper's transition \
                        relation (%s); the dominating test establishes %s"
                       from_ to_ id cycle from_))
                illegal
          | _ -> ()
        in
        let tests = ref SS.empty in
        let rec it =
          { Ast_iterator.default_iterator with Ast_iterator.expr = (fun _ e -> expr e) }
        and walk_default e = Ast_iterator.default_iterator.Ast_iterator.expr it e
        and with_tests t f =
          let saved = !tests in
          tests := t;
          f ();
          tests := saved
        and expr (e : Parsetree.expression) =
          check_write !tests e;
          match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_let (_, vbs, letbody) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  (match Callgraph.pat_name vb.Parsetree.pvb_pat with
                  | Some n -> (
                      match SS.elements (phase_lits_of vb.Parsetree.pvb_expr) with
                      | [ ph ] -> Hashtbl.replace helpers n ph
                      | _ -> ())
                  | None -> ());
                  expr vb.Parsetree.pvb_expr)
                vbs;
              expr letbody
          | Parsetree.Pexp_ifthenelse (c, then_, else_) ->
              expr c;
              with_tests (SS.union !tests (tests_of c)) (fun () -> expr then_);
              Option.iter expr else_
          | Parsetree.Pexp_sequence (a, b) -> (
              expr a;
              match write_to a with
              | Some to_ -> with_tests (SS.singleton to_) (fun () -> expr b)
              | None -> expr b)
          | Parsetree.Pexp_match (scrut, cases) ->
              expr scrut;
              List.iter
                (fun (c : Parsetree.case) ->
                  with_tests
                    (SS.union !tests (pat_phases c.Parsetree.pc_lhs))
                    (fun () ->
                      Option.iter expr c.Parsetree.pc_guard;
                      expr c.Parsetree.pc_rhs))
                cases
          | Parsetree.Pexp_function cases ->
              List.iter
                (fun (c : Parsetree.case) ->
                  with_tests
                    (SS.union !tests (pat_phases c.Parsetree.pc_lhs))
                    (fun () ->
                      Option.iter expr c.Parsetree.pc_guard;
                      expr c.Parsetree.pc_rhs))
                cases
          | Parsetree.Pexp_apply (f, args)
            when (match Rules.path_of_expr f with
                 | Some p -> Escape.tail2 p = "Component.action"
                 | None -> false)
                 && List.exists (fun (l, _) -> l = Asttypes.Labelled "body") args ->
              let guard_tests =
                match List.find_opt (fun (l, _) -> l = Asttypes.Labelled "guard") args with
                | Some (_, g) -> tests_of g
                | None -> SS.empty
              in
              List.iter
                (fun (l, a) ->
                  if l = Asttypes.Labelled "body" then
                    with_tests (SS.union !tests guard_tests) (fun () -> expr a)
                  else expr a)
                args
          | _ -> walk_default e
        in
        expr body;
        (* ---------------- D017: fork-token conservation ---------------- *)
        if not (SS.is_empty fork_ctors) then begin
          let sends : (string, Location.t) Hashtbl.t = Hashtbl.create 4 in
          let clears = ref false in
          let scan it (e : Parsetree.expression) =
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_construct ({ txt; loc }, _) -> (
                match last_segment txt with
                | Some s when SS.mem s fork_ctors ->
                    let better cand cur =
                      let key (l : Location.t) = Callgraph.pos_of l in
                      compare (key cand) (key cur) < 0
                    in
                    if not (Hashtbl.mem sends s) then Hashtbl.add sends s loc
                    else if better loc (Hashtbl.find sends s) then Hashtbl.replace sends s loc
                | _ -> ())
            | Parsetree.Pexp_setfield (_, { txt; _ }, rhs) -> (
                match last_segment txt with
                | Some f when forkish f && bool_lit "false" rhs -> clears := true
                | _ -> ())
            | Parsetree.Pexp_apply (f, (Asttypes.Nolabel, lhs) :: (Asttypes.Nolabel, rhs) :: _)
              when Rules.path_of_expr f = Some ":=" -> (
                match Rules.path_of_expr (Callgraph.peel lhs) with
                | Some name when forkish name && bool_lit "false" rhs -> clears := true
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.Ast_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with Ast_iterator.expr = scan } in
          it.Ast_iterator.expr it body;
          if not !clears then
            Hashtbl.fold (fun s loc acc -> (s, loc) :: acc) sends []
            |> List.sort compare
            |> List.iter (fun (s, loc) ->
                   report
                     ~sym:(Printf.sprintf "%s:%s:dup" id s)
                     ~rel ~loc ~rule:"D017"
                     (Printf.sprintf
                        "%s sends fork token `%s` without clearing local ownership (no \
                         fork-ish field is set to false anywhere in the binding) — the \
                         token is duplicated and mutual exclusion can break"
                        id s));
          (* Handler arms that consume a fork message must record or forward
             the token. *)
          let stores_or_forwards (rhs : Parsetree.expression) =
            let hit = ref false in
            let scan it (e : Parsetree.expression) =
              (match e.Parsetree.pexp_desc with
              | Parsetree.Pexp_setfield (_, { txt; _ }, v) -> (
                  match last_segment txt with
                  | Some f when forkish f && bool_lit "true" v -> hit := true
                  | _ -> ())
              | Parsetree.Pexp_construct ({ txt; _ }, _) -> (
                  match last_segment txt with
                  | Some s when SS.mem s fork_ctors -> hit := true
                  | _ -> ())
              | Parsetree.Pexp_apply (f, (Asttypes.Nolabel, lhs) :: (Asttypes.Nolabel, v) :: _)
                when Rules.path_of_expr f = Some ":=" -> (
                  match Rules.path_of_expr (Callgraph.peel lhs) with
                  | Some name when forkish name && bool_lit "true" v -> hit := true
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.Ast_iterator.expr it e
            in
            let it = { Ast_iterator.default_iterator with Ast_iterator.expr = scan } in
            it.Ast_iterator.expr it rhs;
            !hit
          in
          let case_scan it (e : Parsetree.expression) =
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_match (_, cases) | Parsetree.Pexp_function cases ->
                List.iter
                  (fun (c : Parsetree.case) ->
                    let matched = SS.inter fork_ctors (Msgflow.pat_ctors c.Parsetree.pc_lhs) in
                    if (not (SS.is_empty matched)) && not (stores_or_forwards c.Parsetree.pc_rhs)
                    then
                      report
                        ~sym:(Printf.sprintf "%s:%s:leak" id (SS.min_elt matched))
                        ~rel ~loc:c.Parsetree.pc_lhs.Parsetree.ppat_loc ~rule:"D017"
                        (Printf.sprintf
                           "handler arm in %s consumes fork token `%s` without recording \
                            ownership (no fork-ish field set to true) or forwarding it — \
                            the token leaks and a neighbour starves"
                           id (SS.min_elt matched)))
                  cases
            | _ -> ());
            Ast_iterator.default_iterator.Ast_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with Ast_iterator.expr = case_scan } in
          it.Ast_iterator.expr it body
        end;
        (* ---------------- D018: worker-PRNG derivation ---------------- *)
        let prng_locals = ref SS.empty in
        let collect it (e : Parsetree.expression) =
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_let (_, vbs, _) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  match
                    (Callgraph.pat_name vb.Parsetree.pvb_pat,
                     Rules.head_path (Callgraph.peel vb.Parsetree.pvb_expr))
                  with
                  | Some n, Some h when List.mem (Escape.tail2 h) prng_heads ->
                      prng_locals := SS.add n !prng_locals
                  | _ -> ())
              vbs
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.expr it e
        in
        let itc = { Ast_iterator.default_iterator with Ast_iterator.expr = collect } in
        itc.Ast_iterator.expr itc body;
        let flag_direct (closure : Parsetree.expression) dispatch =
          let scan it (e : Parsetree.expression) =
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident { txt; loc } -> (
                match Rules.path_of_ident txt with
                | Some p when List.mem (Escape.tail2 p) prng_heads ->
                    report
                      ~sym:(Printf.sprintf "%s:%s:prng" id (Escape.tail2 p))
                      ~rel ~loc ~rule:"D018"
                      (Printf.sprintf
                         "worker closure passed to %s calls `%s` — the Exec.Pool contract \
                          makes workers pure functions of their index; derive the \
                          per-worker PRNG via Prng.derive root_seed ~index"
                         dispatch p)
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.Ast_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with Ast_iterator.expr = scan } in
          it.Ast_iterator.expr it closure
        in
        let dispatch_scan it (e : Parsetree.expression) =
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply (f, args) -> (
              match Rules.path_of_expr f with
              | Some p when Taint.pool_dispatch_id p ->
                  List.iter
                    (fun (_, a) ->
                      let a = Callgraph.peel a in
                      match a.Parsetree.pexp_desc with
                      | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
                          flag_direct a p;
                          SS.iter
                            (fun v ->
                              report
                                ~sym:(Printf.sprintf "%s:%s:prng" id v)
                                ~rel ~loc:e.Parsetree.pexp_loc ~rule:"D018"
                                (Printf.sprintf
                                   "worker closure passed to %s captures PRNG `%s` created \
                                    outside the dispatch — all domains share one generator \
                                    and the draw order depends on scheduling; derive a \
                                    per-worker PRNG via Prng.derive root_seed ~index"
                                   p v))
                            (SS.inter (Callgraph.free_vars a) !prng_locals)
                      | _ -> ())
                    args
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.expr it e
        in
        let itd = { Ast_iterator.default_iterator with Ast_iterator.expr = dispatch_scan } in
        itd.Ast_iterator.expr itd body)
  in
  List.iter walk_input inputs;
  List.rev !out
