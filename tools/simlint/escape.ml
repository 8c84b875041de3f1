(* Domain-escape race analysis (rule D012), quadratic-accumulation
   detection (rule D013) and worker-PRNG derivation (rule D018).

   D012 — three closely related hazards around [Exec.Pool]:

     (a) a closure passed directly to a [Pool.map]/[Pool.iter] dispatch
         captures a locally-bound [ref]: every worker domain shares the
         cell and races on it. Refs are flagged on ANY captured use — even
         a read races with a concurrent write, and a captured ref in a
         worker is wrong in shape regardless.
     (b) the closure captures a locally-bound mutable container
         ([Array.make], [Hashtbl.create], [Buffer.create], ...) AND
         mutates it inside the closure body. Read-only capture of a
         warmed structure is the standard fan-out idiom and stays clean;
         writes from several domains are data races.
     (c) a non-atomic read-modify-write on an [Atomic.t]:
         [Atomic.set a (... Atomic.get a ...)] loses concurrent updates —
         the two halves do not compose into one atomic step. Use
         [Atomic.fetch_and_add] or a [compare_and_set] retry loop.

   Origins flow through [let] aliases ([let view = table in ...]); values
   born from [Atomic.make]/[Mutex.create] are protected and never flagged
   by (a)/(b). This is sharper than D009, which only sees module-level
   mutable state through the call graph: D012 tracks the locals D009 is
   blind to and points at the precise captured name. Module-level state
   stays D009's business, so the two rules never double-report one site.

   D013 — an accumulator built with [@]/[List.append]/[^]/
   [Buffer.contents] inside the argument of a recursive self-call:
   each iteration copies the whole accumulator, so the loop is O(n^2)
   where consing + one final [List.rev] (or a Buffer kept open) is O(n).
   Only arguments of calls to an enclosing [let rec] are examined —
   divide-and-conquer code that merges sibling results with [@] outside
   the self-call stays clean.

   D018 — the [Exec.Pool] determinism contract (DESIGN.md, "Parallel
   execution & determinism contract") requires every worker to be a pure
   function of its index; the only sanctioned way to randomness inside a
   worker is [Prng.derive root_seed ~index]. A worker closure that calls
   [Prng.create]/[Prng.split]/[Prng.copy] directly, or that captures a
   local born from one of those, makes the draw sequence depend on domain
   scheduling and is flagged at the offending site. *)

module SS = Set.Make (String)

(* What a tracked local was born from. *)
type origin =
  | Ref  (** [ref e] — flagged on any captured use *)
  | Store of string  (** mutable container; flagged when mutated in-closure *)
  | Protected  (** [Atomic.make] / [Mutex.create] — never flagged *)
  | Prng  (** [Prng.create]/[split]/[copy] — flagged (D018) on any captured use *)

let store_heads =
  [
    "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create"; "Bytes.create";
    "Bytes.make"; "Array.make"; "Array.init"; "Array.copy"; "Array.of_list"; "Array.append";
    "Array.sub"; "Array.make_matrix"; "Vec.create"; "Dsim.Vec.create";
  ]

(* Mutating stdlib entry points, matched on their last two path segments so
   [Dsim.Vec.set] and a local [Vec.set] both hit "Vec.set". The mutated
   value is the first unlabeled argument. *)
let mutator_tails =
  [
    "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit"; "Bytes.set";
    "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit"; "Hashtbl.add"; "Hashtbl.replace";
    "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.clear"; "Buffer.add_char"; "Buffer.add_string";
    "Buffer.add_bytes"; "Buffer.add_substring"; "Buffer.clear"; "Buffer.reset";
    "Buffer.truncate"; "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear";
    "Queue.transfer"; "Stack.push"; "Stack.pop"; "Stack.clear"; "Vec.add_last"; "Vec.set";
    "Vec.clear"; "Vec.remove_last";
  ]

let prng_heads = [ "Prng.create"; "Prng.split"; "Prng.copy" ]

let tail2 path =
  match List.rev (String.split_on_char '.' path) with
  | f :: m :: _ -> m ^ "." ^ f
  | _ -> path

let first_nolabel args =
  List.find_map
    (fun (l, a) -> if l = Asttypes.Nolabel then Some (Callgraph.peel a) else None)
    args

let ident_name (e : Parsetree.expression) =
  match (Callgraph.peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | _ -> None

(* Does [body] mutate the local [v]? Purely syntactic: [v := ..],
   [v.f <- ..], [incr v]/[decr v], or [v] as the first unlabeled argument
   of a known mutator (which covers the [a.(i) <- x] sugar via
   [Array.set]). *)
let mutates body v =
  let hit = ref false in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_setfield (r, _, _) when ident_name r = Some v -> hit := true
    | Parsetree.Pexp_apply (f, args) -> (
        let first_is_v () =
          match first_nolabel args with Some a -> ident_name a = Some v | None -> false
        in
        match Rules.path_of_expr f with
        | Some (":=" | "incr" | "decr") when first_is_v () -> hit := true
        | Some p when List.mem (tail2 p) mutator_tails -> if first_is_v () then hit := true
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
  it.Ast_iterator.expr it body;
  !hit

(* Does [e] read [Atomic.get] of the atomic named [path]? *)
let reads_atomic e path =
  let hit = ref false in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, args) when Rules.path_of_expr f = Some "Atomic.get" -> (
        match first_nolabel args with
        | Some a when Rules.path_of_expr a = Some path -> hit := true
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
  it.Ast_iterator.expr it e;
  !hit

(* The references to [prng_heads] inside [e], with their sites. *)
let prng_calls e =
  let acc = ref [] in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> (
        match Rules.path_of_ident txt with
        | Some p when List.mem (tail2 p) prng_heads -> acc := (p, loc) :: !acc
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
  it.Ast_iterator.expr it e;
  List.rev !acc

(* Accumulating operations that copy their left operand. *)
let accumulating = [ "@"; "List.append"; "^"; "Buffer.contents"; "Buffer.to_bytes" ]

let findings (inputs : Callgraph.input list) : Finding.t list =
  let out = ref [] in
  let reported : (string * int * int * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let report ~rule ~sym ~rel ~loc msg =
    let line, col = Callgraph.pos_of loc in
    if not (Hashtbl.mem reported (rel, line, col, sym)) then begin
      Hashtbl.replace reported (rel, line, col, sym) ();
      out := Finding.with_sym sym (Finding.make ~rule ~file:rel ~line ~col ~msg) :: !out
    end
  in
  let walk_input (inp : Callgraph.input) =
    let rel = inp.Callgraph.rel in
    Callgraph.iter_bindings inp (fun ~id ~is_rec body ->
        (* Tracked locals: name -> origin; scoping by save/restore. *)
        let env : (string, origin) Hashtbl.t = Hashtbl.create 16 in
        (* Names of enclosing [let rec] functions whose loop body the walk
           is currently inside (for D013 self-call detection). *)
        let rec_names = ref SS.empty in
        let origin_of (e : Parsetree.expression) =
          let e = Callgraph.peel e in
          match Rules.head_path e with
          | Some "ref" -> Some Ref
          | Some ("Atomic.make" | "Mutex.create" | "Semaphore.Counting.make") -> Some Protected
          | Some h when List.mem (tail2 h) prng_heads -> Some Prng
          | Some h when List.mem h store_heads || List.mem (tail2 h) store_heads ->
              Some (Store h)
          | _ -> (
              (* alias of an already-tracked local *)
              match ident_name e with
              | Some w -> Hashtbl.find_opt env w
              | None -> None)
        in
        let rec it =
          {
            Ast_iterator.default_iterator with
            Ast_iterator.expr = (fun _ e -> expr e);
          }
        and walk_default e = Ast_iterator.default_iterator.Ast_iterator.expr it e
        and check_dispatch (e : Parsetree.expression) f args =
          match Rules.path_of_expr f with
          | Some p when Taint.pool_dispatch_id p ->
              List.iter
                (fun (_, a) ->
                  let a = Callgraph.peel a in
                  match a.Parsetree.pexp_desc with
                  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
                      List.iter
                        (fun (call, loc) ->
                          report ~rule:"D018"
                            ~sym:(Printf.sprintf "%s:%s:prng" id (tail2 call))
                            ~rel ~loc
                            (Printf.sprintf
                               "worker closure passed to %s calls `%s` — the Exec.Pool contract \
                                makes workers pure functions of their index; derive the \
                                per-worker PRNG via Prng.derive root_seed ~index"
                               p call))
                        (prng_calls a);
                      SS.iter
                        (fun v ->
                          match Hashtbl.find_opt env v with
                          | Some Ref ->
                              report ~rule:"D012" ~sym:(Printf.sprintf "%s:%s:escape" id v) ~rel
                                ~loc:e.Parsetree.pexp_loc
                                (Printf.sprintf
                                   "worker closure passed to %s captures mutable `%s` (ref) \
                                    — domains race on the shared cell; use Atomic, a Mutex, \
                                    or make workers pure functions of their index"
                                   p v)
                          | Some (Store h) when mutates a v ->
                              report ~rule:"D012" ~sym:(Printf.sprintf "%s:%s:escape" id v) ~rel
                                ~loc:e.Parsetree.pexp_loc
                                (Printf.sprintf
                                   "worker closure passed to %s captures and mutates `%s` \
                                    (%s) — concurrent writes from worker domains race; \
                                    collect per-index results instead"
                                   p v h)
                          | Some Prng ->
                              report ~rule:"D018" ~sym:(Printf.sprintf "%s:%s:prng" id v) ~rel
                                ~loc:e.Parsetree.pexp_loc
                                (Printf.sprintf
                                   "worker closure passed to %s captures PRNG `%s` created \
                                    outside the dispatch — all domains share one generator \
                                    and the draw order depends on scheduling; derive a \
                                    per-worker PRNG via Prng.derive root_seed ~index"
                                   p v)
                          | _ -> ())
                        (Callgraph.free_vars a)
                  | _ -> ())
                args
          | _ -> ()
        and check_rmw (e : Parsetree.expression) f args =
          if Rules.path_of_expr f = Some "Atomic.set" then
            match args with
            | (_, target) :: (_, value) :: _ -> (
                match Rules.path_of_expr (Callgraph.peel target) with
                | Some apath when reads_atomic value apath ->
                    report ~rule:"D012" ~sym:(Printf.sprintf "%s:%s:rmw" id apath) ~rel
                      ~loc:e.Parsetree.pexp_loc
                      (Printf.sprintf
                         "non-atomic read-modify-write on Atomic `%s` (get then set loses \
                          concurrent updates); use Atomic.fetch_and_add or a \
                          compare_and_set loop"
                         apath)
                | _ -> ())
            | _ -> ()
        and check_self_call f args =
          match Rules.path_of_expr f with
          | Some p when SS.mem p !rec_names ->
              List.iter
                (fun (_, a) ->
                  let acc_site = ref None in
                  let expr it (e : Parsetree.expression) =
                    (match e.Parsetree.pexp_desc with
                    | Parsetree.Pexp_apply (g, _) -> (
                        match Rules.path_of_expr g with
                        | Some op when List.mem op accumulating && !acc_site = None ->
                            acc_site := Some (e.Parsetree.pexp_loc, op)
                        | _ -> ())
                    | _ -> ());
                    Ast_iterator.default_iterator.Ast_iterator.expr it e
                  in
                  let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
                  it.Ast_iterator.expr it a;
                  match !acc_site with
                  | Some (loc, op) ->
                      report ~rule:"D013" ~sym:(Printf.sprintf "%s:%s:quad" id p) ~rel ~loc
                        (Printf.sprintf
                           "accumulator built with `%s` inside recursive calls to %s — each \
                            iteration copies the whole accumulator (O(n^2)); cons and \
                            reverse once, or keep a Buffer open"
                           op p)
                  | None -> ())
                args
          | _ -> ()
        and expr (e : Parsetree.expression) =
          match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_let (rf, vbs, letbody) ->
              let bound =
                List.filter_map
                  (fun (vb : Parsetree.value_binding) -> Callgraph.pat_name vb.Parsetree.pvb_pat)
                  vbs
              in
              let is_fun (vb : Parsetree.value_binding) =
                match (Callgraph.peel vb.Parsetree.pvb_expr).Parsetree.pexp_desc with
                | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
                | _ -> false
              in
              let saved_rec = !rec_names in
              (if rf = Asttypes.Recursive then
                 rec_names :=
                   List.fold_left
                     (fun s (vb : Parsetree.value_binding) ->
                       match Callgraph.pat_name vb.Parsetree.pvb_pat with
                       | Some n when is_fun vb -> SS.add n s
                       | _ -> s)
                     !rec_names vbs);
              List.iter (fun (vb : Parsetree.value_binding) -> expr vb.Parsetree.pvb_expr) vbs;
              (* Self-calls matter inside the loop bodies only: the call in
                 the continuation below is the loop's entry, not an
                 iteration. *)
              rec_names := saved_rec;
              let saved =
                List.map (fun v -> (v, Hashtbl.find_opt env v)) bound
              in
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  match Callgraph.pat_name vb.Parsetree.pvb_pat with
                  | Some v -> (
                      match origin_of vb.Parsetree.pvb_expr with
                      | Some o -> Hashtbl.replace env v o
                      | None -> Hashtbl.remove env v)
                  | None -> ())
                vbs;
              expr letbody;
              List.iter
                (fun (v, prev) ->
                  match prev with
                  | Some o -> Hashtbl.replace env v o
                  | None -> Hashtbl.remove env v)
                saved
          | Parsetree.Pexp_apply (f, args) ->
              check_dispatch e f args;
              check_rmw e f args;
              check_self_call f args;
              walk_default e
          | _ -> walk_default e
        in
        let saved_rec = !rec_names in
        (if is_rec then
           match List.rev (String.split_on_char '.' id) with
           | name :: _ when name <> "(init)" -> rec_names := SS.add name !rec_names
           | _ -> ());
        expr body;
        rec_names := saved_rec)
  in
  List.iter walk_input inputs;
  List.rev !out
