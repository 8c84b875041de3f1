(* Hot-path allocation analysis (rule D011).

   A function marked [(* simlint: hotpath *)] (or named in the driver's
   hot-root config) promises to stay allocation-free: the engine's step
   dispatch runs millions of times per campaign, and every word it
   allocates per call is GC pressure multiplying across the sweep. This
   pass classifies the allocating expressions inside every top-level
   binding, computes forward reachability over the [Callgraph] from the
   hot roots (reusing the [Taint] BFS on a flipped edge set), and reports
   one D011 per allocation site in a reached node, carrying the full
   "hot caller -> ... -> allocating callee" chain.

   Classified allocation kinds, all purely syntactic:

     - closure construction: a nested [fun]/[function] whose free
       variables intersect the enclosing bindings (a capture-free lambda
       is hoisted to a static closure by the compiler and costs nothing);
       a local [let rec f] always counts — the self-reference makes the
       closure block cyclic, so it is rebuilt per call.
     - tuples, records, non-empty array literals, list cons cells,
       constructors and polymorphic variants with a payload, [lazy] — all
       skipped when the whole expression is a structured constant, which
       ocamlopt lifts to static data.
     - calls to known allocators ([@]/[List.append], [^]/[String.concat],
       [ref], [Printf.sprintf], [Array.make], [Buffer.contents], ...). A
       [let x = ref e] whose body uses [x] only as [!x], [x := v],
       [incr x] or [decr x], with no closure mentioning [x], is not a
       site: ocamlopt keeps such a cell in a mutable variable.
     - partial application of a known-arity stdlib function (builds a
       closure at each call).

   Float boxing is deliberately not a kind of its own: a float only boxes
   when stored into a generic position — a tuple, record, ref or
   constructor — and those enclosing constructions are already sites.
   [Int64] arithmetic is likewise not classified: ocamlopt unboxes local
   Int64 flows, and flagging them would drown the PRNG in noise.

   Sites are only collected inside bindings that are syntactic functions:
   a structured constant or one-off computation bound at module top level
   allocates once at init, not per hot call. *)

module SS = Set.Make (String)

let pat_vars (p : Parsetree.pattern) : SS.t =
  let acc = ref SS.empty in
  let pat it (p : Parsetree.pattern) =
    (match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> acc := SS.add txt !acc
    | Parsetree.Ppat_alias (_, { txt; _ }) -> acc := SS.add txt !acc
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.Ast_iterator.pat it p;
  !acc

(* Unqualified identifiers of [e0] not bound within it. Module-qualified
   paths are globals and never captures. Scoping is handled for the forms
   that bind ([fun], [let], cases, [for]); everything else falls through
   to the default traversal. *)
let free_vars (e0 : Parsetree.expression) : SS.t =
  let free = ref SS.empty in
  let bound = ref SS.empty in
  let scoped extra k =
    let saved = !bound in
    bound := SS.union saved extra;
    k ();
    bound := saved
  in
  let rec it =
    {
      Ast_iterator.default_iterator with
      Ast_iterator.expr = (fun _ e -> expr e);
      case = (fun _ c -> case c);
      pat = (fun _ _ -> ());
    }
  and expr (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident x; _ } ->
        if not (SS.mem x !bound) then free := SS.add x !free
    | Parsetree.Pexp_fun (_, dflt, pat, body) ->
        Option.iter expr dflt;
        scoped (pat_vars pat) (fun () -> expr body)
    | Parsetree.Pexp_let (rf, vbs, body) ->
        let names =
          List.fold_left
            (fun s (vb : Parsetree.value_binding) -> SS.union s (pat_vars vb.Parsetree.pvb_pat))
            SS.empty vbs
        in
        (if rf = Asttypes.Recursive then
           scoped names (fun () ->
               List.iter (fun (vb : Parsetree.value_binding) -> expr vb.Parsetree.pvb_expr) vbs)
         else
           List.iter (fun (vb : Parsetree.value_binding) -> expr vb.Parsetree.pvb_expr) vbs);
        scoped names (fun () -> expr body)
    | Parsetree.Pexp_for (pat, lo, hi, _, body) ->
        expr lo;
        expr hi;
        scoped (pat_vars pat) (fun () -> expr body)
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr it e
  and case (c : Parsetree.case) =
    scoped (pat_vars c.Parsetree.pc_lhs) (fun () ->
        Option.iter expr c.Parsetree.pc_guard;
        expr c.Parsetree.pc_rhs)
  in
  expr e0;
  !free

(* Known allocating calls: path (after the Stdlib. strip that
   [Rules.path_of_ident] already performs) -> short kind slug. *)
let allocating_calls =
  [
    ("@", "list-append");
    ("List.append", "list-append");
    ("List.rev_append", "list-append");
    ("^", "string-concat");
    ("String.concat", "string-concat");
    ("ref", "ref");
    ("List.map", "list-build");
    ("List.mapi", "list-build");
    ("List.rev_map", "list-build");
    ("List.filter", "list-build");
    ("List.filter_map", "list-build");
    ("List.concat", "list-build");
    ("List.concat_map", "list-build");
    ("List.flatten", "list-build");
    ("List.init", "list-build");
    ("List.rev", "list-build");
    ("List.split", "list-build");
    ("List.combine", "list-build");
    ("List.of_seq", "list-build");
    ("List.sort", "list-build");
    ("List.sort_uniq", "list-build");
    ("List.stable_sort", "list-build");
    ("List.fast_sort", "list-build");
    ("Array.make", "array-build");
    ("Array.init", "array-build");
    ("Array.create_float", "array-build");
    ("Array.copy", "array-build");
    ("Array.append", "array-build");
    ("Array.concat", "array-build");
    ("Array.sub", "array-build");
    ("Array.of_list", "array-build");
    ("Array.to_list", "list-build");
    ("Array.map", "array-build");
    ("Array.mapi", "array-build");
    ("Array.make_matrix", "array-build");
    ("Array.of_seq", "array-build");
    ("Array.to_seq", "seq-build");
    ("String.make", "string-build");
    ("String.init", "string-build");
    ("String.sub", "string-build");
    ("String.map", "string-build");
    ("String.split_on_char", "string-build");
    ("String.uppercase_ascii", "string-build");
    ("String.lowercase_ascii", "string-build");
    ("String.capitalize_ascii", "string-build");
    ("String.trim", "string-build");
    ("String.escaped", "string-build");
    ("Bytes.create", "bytes-build");
    ("Bytes.make", "bytes-build");
    ("Bytes.init", "bytes-build");
    ("Bytes.sub", "bytes-build");
    ("Bytes.copy", "bytes-build");
    ("Bytes.of_string", "bytes-build");
    ("Bytes.to_string", "string-build");
    ("Bytes.sub_string", "string-build");
    ("Bytes.extend", "bytes-build");
    ("Bytes.cat", "bytes-build");
    ("Buffer.create", "buffer-build");
    ("Buffer.contents", "string-build");
    ("Buffer.to_bytes", "bytes-build");
    ("Buffer.sub", "string-build");
    ("Printf.sprintf", "printf");
    ("Printf.printf", "printf");
    ("Printf.eprintf", "printf");
    ("Printf.fprintf", "printf");
    ("Format.sprintf", "printf");
    ("Format.asprintf", "printf");
    ("Format.printf", "printf");
    ("Hashtbl.create", "hashtbl");
    ("Hashtbl.add", "hashtbl");
    ("Hashtbl.replace", "hashtbl");
    ("Hashtbl.copy", "hashtbl");
    ("Queue.create", "queue");
    ("Queue.push", "queue");
    ("Queue.add", "queue");
    ("Stack.create", "stack");
    ("Stack.push", "stack");
    ("string_of_int", "string-build");
    ("string_of_float", "string-build");
    ("Int.to_string", "string-build");
    ("Int64.to_string", "string-build");
    ("Float.to_string", "string-build");
  ]

(* Functions that do NOT otherwise allocate, but whose partial application
   builds a closure: path -> number of unlabeled parameters. *)
let known_arity =
  [
    ("List.iter", 2);
    ("List.iteri", 2);
    ("List.fold_left", 3);
    ("List.exists", 2);
    ("List.for_all", 2);
    ("Array.iter", 2);
    ("Array.iteri", 2);
    ("Array.fold_left", 3);
    ("Array.set", 3);
    ("Array.get", 2);
    ("Array.fill", 4);
    ("Array.blit", 5);
    ("Hashtbl.find", 2);
    ("Hashtbl.find_opt", 2);
    ("Hashtbl.mem", 2);
    ("Atomic.get", 1);
    ("Atomic.set", 2);
    ("min", 2);
    ("max", 2);
    ("compare", 2);
  ]

(* Structured constants are lifted to static data by ocamlopt; an
   identifier is conservatively non-constant. *)
let rec is_const (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant _ -> true
  | Parsetree.Pexp_construct (_, None) -> true
  | Parsetree.Pexp_construct (_, Some arg) -> is_const arg
  | Parsetree.Pexp_variant (_, None) -> true
  | Parsetree.Pexp_variant (_, Some arg) -> is_const arg
  | Parsetree.Pexp_tuple es -> List.for_all is_const es
  | Parsetree.Pexp_array es -> List.for_all is_const es
  | Parsetree.Pexp_constraint (inner, _) -> is_const inner
  | _ -> false

(* Whether [let x = ref _ in body] keeps its cell off the heap: every use
   of [x] in [body] is [!x], [x := v], [incr x] or [decr x], and no
   closure ([fun], [function], [lazy], an object or a binding operator's
   body) mentions [x]. Any other use — returned, passed, stored, matched,
   shadowed — counts as an escape. *)
let local_ref x (body : Parsetree.expression) =
  let escapes = ref false in
  let is_x (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident y; _ } -> String.equal y x
    | _ -> false
  in
  let rec it = { Ast_iterator.default_iterator with Ast_iterator.expr = (fun _ e -> expr e) }
  and expr (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, (Asttypes.Nolabel, cell) :: rest) when is_x cell -> (
        match (Rules.path_of_expr f, rest) with
        | Some ("!" | "incr" | "decr"), [] -> ()
        | Some ":=", [ (Asttypes.Nolabel, v) ] -> expr v
        | _ -> escapes := true)
    | Parsetree.Pexp_ident _ when is_x e -> escapes := true
    | ( Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_lazy _
      | Parsetree.Pexp_object _ | Parsetree.Pexp_letop _ )
      when SS.mem x (free_vars e) ->
        escapes := true
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  expr body;
  not !escapes

type site = {
  line : int;
  col : int;
  kind : string;  (** human description, e.g. "closure capturing p, t" *)
  slug : string;  (** compact kind for the finding's symbol key *)
}

let site_of ~loc ~kind ~slug =
  let line, col = Callgraph.pos_of loc in
  { line; col; kind; slug }

(* Peel the parameter chain of a binding: returns [Some (params, body)]
   when the bound expression is a syntactic function, [None] otherwise
   (then the binding runs once at module init and is not a D011 target).
   A [function] head binds per-case; its scrutinee parameter is
   implicit. *)
let rec peel_fun (e : Parsetree.expression) (params : SS.t) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, pat, body) -> peel_fun body (SS.union params (pat_vars pat))
  | Parsetree.Pexp_newtype (_, body) -> peel_fun body params
  | Parsetree.Pexp_constraint (inner, _) -> peel_fun inner params
  | Parsetree.Pexp_function _ -> Some (params, e)
  | _ -> if SS.is_empty params then None else Some (params, e)

(* Collect the allocation sites of one function binding. [locals] tracks
   every name bound since the binding's head (parameters included): a
   nested lambda is a per-call closure exactly when its free variables
   meet that set. *)
let sites_of_binding (e0 : Parsetree.expression) : site list =
  match peel_fun e0 SS.empty with
  | None -> []
  | Some (params, body) ->
      let sites = ref [] in
      let add s = sites := s :: !sites in
      let locals = ref params in
      let scoped extra k =
        let saved = !locals in
        locals := SS.union saved extra;
        k ();
        locals := saved
      in
      let closure_site (e : Parsetree.expression) =
        let captured = SS.inter (free_vars e) !locals in
        if not (SS.is_empty captured) then
          add
            (site_of ~loc:e.Parsetree.pexp_loc
               ~kind:
                 (Printf.sprintf "closure capturing %s"
                    (String.concat ", " (SS.elements captured)))
               ~slug:"closure")
      in
      let rec it =
        {
          Ast_iterator.default_iterator with
          Ast_iterator.expr = (fun _ e -> expr e);
          case = (fun _ c -> case c);
          pat = (fun _ _ -> ());
        }
      and walk_default e = Ast_iterator.default_iterator.Ast_iterator.expr it e
      and expr (e : Parsetree.expression) =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_fun (_, dflt, pat, body) ->
            closure_site e;
            Option.iter expr dflt;
            scoped (pat_vars pat) (fun () -> expr body)
        | Parsetree.Pexp_function _ ->
            closure_site e;
            walk_default e
        | Parsetree.Pexp_let (rf, vbs, body) ->
            let names =
              List.fold_left
                (fun s (vb : Parsetree.value_binding) ->
                  SS.union s (pat_vars vb.Parsetree.pvb_pat))
                SS.empty vbs
            in
            (* [let rec f] allocates a cyclic closure per entry even with no
               other capture: record the self name as a local before the
               capture check so the analysis sees it. *)
            let bound (vb : Parsetree.value_binding) =
              match (rf, vb.Parsetree.pvb_pat.Parsetree.ppat_desc, vb.Parsetree.pvb_expr) with
              | ( Asttypes.Nonrecursive,
                  Parsetree.Ppat_var { txt = x; _ },
                  { Parsetree.pexp_desc = Parsetree.Pexp_apply (f, [ (Asttypes.Nolabel, init) ]); _ }
                )
                when Rules.path_of_expr f = Some "ref" && local_ref x body ->
                  expr init
              | _ -> expr vb.Parsetree.pvb_expr
            in
            (if rf = Asttypes.Recursive then scoped names (fun () -> List.iter bound vbs)
             else List.iter bound vbs);
            scoped names (fun () -> expr body)
        | Parsetree.Pexp_for (pat, lo, hi, _, body) ->
            expr lo;
            expr hi;
            scoped (pat_vars pat) (fun () -> expr body)
        | Parsetree.Pexp_tuple _ when not (is_const e) ->
            add (site_of ~loc:e.Parsetree.pexp_loc ~kind:"tuple" ~slug:"tuple");
            walk_default e
        | Parsetree.Pexp_record _ ->
            add (site_of ~loc:e.Parsetree.pexp_loc ~kind:"record" ~slug:"record");
            walk_default e
        | Parsetree.Pexp_array (_ :: _) when not (is_const e) ->
            add (site_of ~loc:e.Parsetree.pexp_loc ~kind:"array literal" ~slug:"array");
            walk_default e
        | Parsetree.Pexp_construct ({ txt; _ }, Some _) when not (is_const e) ->
            let name = match Rules.flatten txt with [] -> "?" | p -> List.nth p (List.length p - 1) in
            add
              (site_of ~loc:e.Parsetree.pexp_loc
                 ~kind:
                   (if name = "::" then "list cons"
                    else Printf.sprintf "constructor %s with payload" name)
                 ~slug:(if name = "::" then "cons" else "construct"));
            walk_default e
        | Parsetree.Pexp_variant (_, Some _) when not (is_const e) ->
            add
              (site_of ~loc:e.Parsetree.pexp_loc ~kind:"polymorphic variant with payload"
                 ~slug:"variant");
            walk_default e
        | Parsetree.Pexp_lazy _ ->
            add (site_of ~loc:e.Parsetree.pexp_loc ~kind:"lazy block" ~slug:"lazy");
            walk_default e
        | Parsetree.Pexp_apply (f, args) ->
            (match Rules.path_of_expr f with
            | Some p -> (
                match List.assoc_opt p allocating_calls with
                | Some slug ->
                    add
                      (site_of ~loc:e.Parsetree.pexp_loc
                         ~kind:(Printf.sprintf "call to allocator %s" p)
                         ~slug)
                | None -> (
                    match List.assoc_opt p known_arity with
                    | Some arity
                      when List.length
                             (List.filter (fun (l, _) -> l = Asttypes.Nolabel) args)
                           < arity ->
                        add
                          (site_of ~loc:e.Parsetree.pexp_loc
                             ~kind:(Printf.sprintf "partial application of %s" p)
                             ~slug:"partial")
                    | _ -> ()))
            | None -> ());
            walk_default e
        | Parsetree.Pexp_ident _ | Parsetree.Pexp_constant _ -> ()
        | _ -> walk_default e
      and case (c : Parsetree.case) =
        scoped (pat_vars c.Parsetree.pc_lhs) (fun () ->
            Option.iter expr c.Parsetree.pc_guard;
            expr c.Parsetree.pc_rhs)
      in
      (* A [function] at the head of the binding is the binding's own body
         (its implicit parameter), not a nested closure: enter its cases
         directly so it is never counted as a capture site. *)
      (match body.Parsetree.pexp_desc with
      | Parsetree.Pexp_function _ -> walk_default body
      | _ -> expr body);
      List.rev !sites

(* One scanned file plus the lines carrying a [(* simlint: hotpath *)]
   annotation (from [Suppress.hotpaths]). *)
type file = { input : Callgraph.input; hot_lines : int list }

let findings (files : file list) (g : Callgraph.t) ~(roots : string list) : Finding.t list =
  (* Per-node allocation sites, the hot roots the annotations name, and
     every binding that is a syntactic function. *)
  let node_sites : (string * string * site list) list ref = ref [] in
  let annotated = ref [] in
  let functions = ref SS.empty in
  List.iter
    (fun f ->
      Callgraph.iter_bindings f.input (fun ~id ~line ~is_rec:_ body ->
          if Suppress.marks_hot f.hot_lines ~line then annotated := id :: !annotated;
          if Option.is_some (peel_fun body SS.empty) then functions := SS.add id !functions;
          match sites_of_binding body with
          | [] -> ()
          | sites -> node_sites := (id, f.input.Callgraph.rel, sites) :: !node_sites))
    files;
  List.iter
    (fun r ->
      if not (SS.mem r !functions) then
        invalid_arg (Printf.sprintf "hot-path root %s names no function in the scanned files" r))
    roots;
  let roots = List.sort_uniq String.compare (roots @ !annotated) in
  let seeds =
    List.map
      (fun r ->
        let file, line =
          match Callgraph.find_node g r with
          | Some n -> (n.Callgraph.file, n.Callgraph.line)
          | None -> ("", 0)
        in
        ( r,
          { Taint.trail = [ r ]; source = r; source_file = file; source_line = line } ))
      roots
  in
  let reached = Taint.propagate_forward g seeds in
  List.concat_map
    (fun (id, rel, sites) ->
      match Hashtbl.find_opt reached id with
      | None -> []
      | Some c ->
          let chain = List.rev c.Taint.trail in
          let root = List.hd chain in
          let chain_str = String.concat " -> " chain in
          List.map
            (fun s ->
              Finding.with_sym
                (Printf.sprintf "%s->%s:%s" root id s.slug)
              @@ Finding.make ~rule:"D011" ~file:rel ~line:s.line ~col:s.col
                   ~msg:
                  (Printf.sprintf
                     "allocation on the hot path: %s in %s (chain %s); hot-path code must \
                      stay allocation-free — hoist it, reuse scratch state, or justify the \
                      site"
                     s.kind id chain_str))
            sites)
    (List.sort compare !node_sites)
