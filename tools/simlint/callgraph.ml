(* Whole-project, module-qualified call graph over top-level [let] bindings.

   Every scanned file is parsed once (by [Driver]) and walked here to
   produce three relations the taint pass consumes:

     - nodes: one per top-level value binding (including bindings inside
       nested [module S = struct .. end]), keyed by a dotted id such as
       "Dining.Ftme.component". Files under lib/<dir>/ get the capitalized
       directory as a namespace prefix, mirroring dune's wrapped libraries,
       so both the external spelling (Dining.Ftme.f) and the intra-library
       spelling (Ftme.f) of a reference resolve to the same node.
     - edges: caller node -> callee node, one per call/reference site.
     - seeds: sites inside a node's body that touch a nondeterminism source
       directly (wall clock, Random, Sys/Unix environment, Hashtbl traversal
       order, the polymorphic Hashtbl.hash).

   Resolution is deliberately best-effort and purely syntactic: [open]s and
   module aliases are expanded, enclosing-module prefixes are tried from
   most- to least-specific, and anything that still fails to resolve (stdlib
   calls, locals, functor innards) is silently dropped. False negatives are
   acceptable — the per-file rules still catch direct sites — but every
   resolution choice is deterministic so reports replay bit-identically. *)

type input = {
  rel : string;  (** root-relative path, '/'-separated *)
  lib : bool;  (** lib rules apply (real lib/ file, or --force-lib) *)
  wallclock_ok : bool;  (** file is on the D001 allowlist: clock reads do not seed *)
  str : Parsetree.structure;
}

type node = { id : string; file : string; line : int; lib : bool }

type edge = { caller : string; callee : string; file : string; line : int; col : int }

type seed = { node : string; source : string; file : string; line : int }

type mutdef = { mnode : string; head : string; mfile : string; mline : int }
(** A top-level binding holding mutable state ([ref], [Hashtbl.create], ...)
    — the D009 sources. Unlike D008 this is collected for every scanned
    file, not just lib: parallel workers live in bin/stress/bench too. *)

type t = {
  nodes : (string * node) list;  (** sorted by id *)
  edges : edge list;  (** sorted; deduplicated *)
  seeds : seed list;  (** sorted *)
  mutables : mutdef list;  (** sorted *)
}

(* Nondeterminism sources seeded into the graph. Wall clock and randomness
   mirror D001/D002; the environment and the representation hash are taint
   sources only (no direct rule bans reading an env var — but a lib function
   whose result depends on one is not replayable). *)
let env_sources = [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.environment" ]

let ident_sources =
  Rules.wallclock @ env_sources @ Rules.poly_hash @ [ "Hashtbl.randomize"; "Hashtbl.iter" ]

let module_of_file rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

(* lib/<dir>/<file>.ml -> the wrapped-library namespace, e.g. "Dining". *)
let namespace_of_file rel =
  match String.split_on_char '/' rel with
  | [ "lib"; dir; _ ] -> Some (String.capitalize_ascii dir)
  | _ -> None

(* The scope every top-level binding of a file is named under, e.g.
   ["Dining"; "Ftme"] for lib/dining/ftme.ml. *)
let file_scope rel =
  match namespace_of_file rel with
  | Some n -> [ n; module_of_file rel ]
  | None -> [ module_of_file rel ]

let rec pat_name (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_constraint (inner, _) -> pat_name inner
  | _ -> None

let dotted parts = String.concat "." parts

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Mutable build state, folded over every file. *)
type builder = {
  mutable defs : (string * node) list;  (** canonical id -> node, newest first *)
  keys : (string, string) Hashtbl.t;  (** lookup key -> canonical id (first wins) *)
  mutable raw_edges : (string * string list * string list list * string * int * int) list;
      (** caller id, ref path parts, candidate prefixes (outermost scope first),
          file, line, col — resolved after all defs are known *)
  mutable raw_seeds : seed list;
  mutable raw_mutables : mutdef list;
}

let register_def b ~ns ~scope ~name ~file ~line ~lib =
  let id = dotted (scope @ [ name ]) in
  if not (List.mem_assoc id b.defs) then begin
    b.defs <- (id, { id; file; line; lib }) :: b.defs;
    if not (Hashtbl.mem b.keys id) then Hashtbl.add b.keys id id;
    (* Secondary, namespace-free key so intra-library references resolve. *)
    match ns with
    | Some n -> (
        match scope with
        | hd :: tl when hd = n ->
            let bare = dotted (tl @ [ name ]) in
            if not (Hashtbl.mem b.keys bare) then Hashtbl.add b.keys bare id
        | _ -> ())
    | None -> ()
  end;
  id

(* Environment threaded through the walk of one file. [aliases] maps a
   module alias to its expansion's path parts; [opens] are expanded open
   paths, innermost first. *)
type env = { scope : string list; opens : string list list; aliases : (string * string list) list }

let expand_alias env = function
  | [] -> []
  | hd :: tl -> (
      match List.assoc_opt hd env.aliases with Some exp -> exp @ tl | None -> hd :: tl)

let module_path (m : Parsetree.module_expr) =
  match m.Parsetree.pmod_desc with
  | Parsetree.Pmod_ident { txt; _ } -> (
      match Rules.flatten txt with [] -> None | parts -> Some parts)
  | _ -> None

(* Same constraint peeling as the D008 walk in [Rules]. *)
let rec peel (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with Parsetree.Pexp_constraint (inner, _) -> peel inner | _ -> e

let build (inputs : input list) : t =
  let b =
    { defs = []; keys = Hashtbl.create 256; raw_edges = []; raw_seeds = []; raw_mutables = [] }
  in
  (* ---- pass 1: definitions, raw references, seeds ---- *)
  let walk_file (inp : input) =
    let ns = namespace_of_file inp.rel in
    let root_scope = file_scope inp.rel in
    (* Candidate prefixes for a reference in scope [s], most specific
       first, ending with the empty prefix (absolute reference). *)
    let rec scope_chain = function
      | [] -> [ [] ]
      | s -> s :: scope_chain (List.rev (List.tl (List.rev s)))
    in
    let prefixes env = scope_chain env.scope @ env.opens in
    (* An [open M] (or [include M]) of a module defined locally in this
       file must resolve against the enclosing scope too: inside module [A]
       of file [F], [open Impl] may mean [F.A.Impl], [F.Impl] or a global
       [Impl], so every scope-qualified variant becomes an open prefix. *)
    let open_prefixes env parts = List.map (fun s -> s @ parts) (scope_chain env.scope) in
    let record_ref env ~caller ~loc (li : Longident.t) =
      match Rules.flatten li with
      | [] -> ()
      | parts ->
          let parts = expand_alias env parts in
          let line, col = pos_of loc in
          b.raw_edges <- (caller, parts, prefixes env, inp.rel, line, col) :: b.raw_edges
    in
    let record_seed ~caller ~loc source =
      let line, _ = pos_of loc in
      b.raw_seeds <- { node = caller; source; file = inp.rel; line } :: b.raw_seeds
    in
    (* Walk one binding body, attributing refs and seeds to [caller]. The
       environment is mutable-with-restore so [let open]/[M.(..)] scopes
       extend it only for their subtree. *)
    let walk_body env0 ~caller (body : Parsetree.expression) =
      let env = ref env0 in
      (* Same sanctioning dance as the D003 rule: a [Hashtbl.fold] piped
         straight into a sort is order-free and must not seed taint. *)
      let sanctioned : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
      let sanction (e : Parsetree.expression) =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (f, _) -> (
            match Rules.path_of_expr f with
            | Some "Hashtbl.fold" -> Hashtbl.replace sanctioned f.Parsetree.pexp_loc ()
            | _ -> ())
        | _ -> ()
      in
      let is_sort e =
        match Rules.head_path e with Some p -> List.mem p Rules.sort_heads | None -> false
      in
      let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_open (o, body) ->
            let saved = !env in
            (match module_path o.Parsetree.popen_expr with
            | Some parts ->
                env := { !env with opens = open_prefixes !env (expand_alias !env parts) @ !env.opens }
            | None -> ());
            it.Ast_iterator.expr it body;
            env := saved
        | Parsetree.Pexp_letmodule ({ txt = Some name; _ }, m, body) ->
            let saved = !env in
            (match module_path m with
            | Some parts -> env := { !env with aliases = (name, expand_alias !env parts) :: !env.aliases }
            | None -> ());
            it.Ast_iterator.expr it body;
            env := saved
        | Parsetree.Pexp_ident { txt; loc } ->
            (match Rules.path_of_ident txt with
            | Some p
              when List.mem p ident_sources || Rules.starts_with ~prefix:"Random." p ->
                if not (inp.wallclock_ok && List.mem p Rules.wallclock) then
                  record_seed ~caller ~loc p
            | Some "Hashtbl.fold" when not (Hashtbl.mem sanctioned e.Parsetree.pexp_loc) ->
                record_seed ~caller ~loc "Hashtbl.fold (unsorted)"
            | _ -> ());
            record_ref !env ~caller ~loc txt
        | Parsetree.Pexp_apply (f, args) ->
            (match (Rules.path_of_expr f, args) with
            | Some "|>", [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ] when is_sort rhs ->
                sanction lhs
            | Some "@@", [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ] when is_sort lhs ->
                sanction rhs
            | Some p, args when List.mem p Rules.sort_heads ->
                List.iter (fun (_, a) -> sanction a) args
            | _ -> ());
            Ast_iterator.default_iterator.Ast_iterator.expr it e
        | _ -> Ast_iterator.default_iterator.Ast_iterator.expr it e
      in
      let it = { Ast_iterator.default_iterator with expr } in
      it.Ast_iterator.expr it body
    in
    let rec walk_items env items = List.iter (walk_item env) items
    and walk_item (env : env ref) (si : Parsetree.structure_item) =
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let line, _ = pos_of vb.Parsetree.pvb_loc in
              let caller =
                match pat_name vb.Parsetree.pvb_pat with
                | Some name ->
                    let id =
                      register_def b ~ns ~scope:!env.scope ~name ~file:inp.rel ~line ~lib:inp.lib
                    in
                    (match Rules.head_path (peel vb.Parsetree.pvb_expr) with
                    | Some h when List.mem h Rules.mutable_heads ->
                        b.raw_mutables <-
                          { mnode = id; head = h; mfile = inp.rel; mline = line } :: b.raw_mutables
                    | _ -> ());
                    id
                | None ->
                    (* Side-effecting module initialisation ([let () = ..]):
                       one synthetic node per module so cross-file taint in
                       init code is still tracked. *)
                    register_def b ~ns ~scope:!env.scope ~name:"(init)" ~file:inp.rel ~line
                      ~lib:inp.lib
              in
              walk_body !env ~caller vb.Parsetree.pvb_expr)
            vbs
      | Parsetree.Pstr_eval (e, _) ->
          let line, _ = pos_of si.Parsetree.pstr_loc in
          let caller =
            register_def b ~ns ~scope:!env.scope ~name:"(init)" ~file:inp.rel ~line ~lib:inp.lib
          in
          walk_body !env ~caller e
      | Parsetree.Pstr_open o -> (
          match module_path o.Parsetree.popen_expr with
          | Some parts ->
              env := { !env with opens = open_prefixes !env (expand_alias !env parts) @ !env.opens }
          | None -> ())
      | Parsetree.Pstr_module mb -> (
          let name = match mb.Parsetree.pmb_name.txt with Some n -> n | None -> "_" in
          match mb.Parsetree.pmb_expr.Parsetree.pmod_desc with
          | Parsetree.Pmod_ident _ -> (
              match module_path mb.Parsetree.pmb_expr with
              | Some parts -> env := { !env with aliases = (name, expand_alias !env parts) :: !env.aliases }
              | None -> ())
          | _ -> walk_module env name mb.Parsetree.pmb_expr)
      | Parsetree.Pstr_recmodule mbs ->
          List.iter
            (fun (mb : Parsetree.module_binding) ->
              let name = match mb.Parsetree.pmb_name.txt with Some n -> n | None -> "_" in
              walk_module env name mb.Parsetree.pmb_expr)
            mbs
      | Parsetree.Pstr_include i -> (
          (* [include struct .. end] contributes to the enclosing module;
             [include M] re-exports M's bindings, which for resolution
             purposes behaves like an open of M. *)
          match i.Parsetree.pincl_mod.Parsetree.pmod_desc with
          | Parsetree.Pmod_structure s -> walk_items env s
          | Parsetree.Pmod_ident _ -> (
              match module_path i.Parsetree.pincl_mod with
              | Some parts ->
                  env :=
                    { !env with opens = open_prefixes !env (expand_alias !env parts) @ !env.opens }
              | None -> ())
          | _ -> ())
      | _ -> ()
    and walk_module env name (m : Parsetree.module_expr) =
      match m.Parsetree.pmod_desc with
      | Parsetree.Pmod_structure s ->
          let saved = !env in
          env := { !env with scope = !env.scope @ [ name ] };
          walk_items env s;
          env := saved
      | Parsetree.Pmod_constraint (inner, _) -> walk_module env name inner
      | Parsetree.Pmod_functor (_, inner) ->
          (* Functor-body top-level lets register under the functor's name:
             their allocation/state is per-application, but their *call and
             message structure* is static, which is what D010/D014 need. *)
          walk_module env name inner
      | _ -> ()
    in
    let env = ref { scope = root_scope; opens = []; aliases = [] } in
    walk_items env inp.str
  in
  List.iter walk_file inputs;
  (* ---- pass 2: resolve references against the def table ---- *)
  let resolve parts prefixes =
    let rec try_prefixes = function
      | [] -> None
      | pre :: rest -> (
          match Hashtbl.find_opt b.keys (dotted (pre @ parts)) with
          | Some id -> Some id
          | None -> try_prefixes rest)
    in
    try_prefixes prefixes
  in
  let edges =
    List.filter_map
      (fun (caller, parts, prefixes, file, line, col) ->
        match resolve parts prefixes with
        | Some callee when callee <> caller -> Some { caller; callee; file; line; col }
        | _ -> None)
      b.raw_edges
    |> List.sort_uniq compare
  in
  {
    nodes = List.sort (fun (a, _) (c, _) -> String.compare a c) b.defs;
    edges;
    seeds = List.sort_uniq compare b.raw_seeds;
    mutables = List.sort_uniq compare b.raw_mutables;
  }

let find_node t id = List.assoc_opt id t.nodes

(* Iterate the top-level value bindings of one input with exactly the
   canonical ids [build] assigns its nodes (namespace prefix, nested-module
   scopes, the synthetic "(init)" for pattern-less bindings), without
   touching a builder. The escape ([Escape]) and message-flow ([Msgflow])
   passes walk binding bodies through this, so a site they report always
   names a node the call-graph passes know. *)
let iter_bindings (inp : input) (f : id:string -> is_rec:bool -> Parsetree.expression -> unit) =
  let root_scope = file_scope inp.rel in
  let rec walk_items scope items = List.iter (walk_item scope) items
  and walk_item scope (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (rf, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let name = Option.value ~default:"(init)" (pat_name vb.Parsetree.pvb_pat) in
            f ~id:(dotted (scope @ [ name ])) ~is_rec:(rf = Asttypes.Recursive)
              vb.Parsetree.pvb_expr)
          vbs
    | Parsetree.Pstr_eval (e, _) -> f ~id:(dotted (scope @ [ "(init)" ])) ~is_rec:false e
    | Parsetree.Pstr_module mb -> (
        let name = match mb.Parsetree.pmb_name.txt with Some n -> n | None -> "_" in
        match mb.Parsetree.pmb_expr.Parsetree.pmod_desc with
        | Parsetree.Pmod_ident _ -> ()
        | _ -> walk_mod scope name mb.Parsetree.pmb_expr)
    | Parsetree.Pstr_recmodule mbs ->
        List.iter
          (fun (mb : Parsetree.module_binding) ->
            let name = match mb.Parsetree.pmb_name.txt with Some n -> n | None -> "_" in
            walk_mod scope name mb.Parsetree.pmb_expr)
          mbs
    | Parsetree.Pstr_include i -> (
        match i.Parsetree.pincl_mod.Parsetree.pmod_desc with
        | Parsetree.Pmod_structure s -> walk_items scope s
        | _ -> ())
    | _ -> ()
  and walk_mod scope name (m : Parsetree.module_expr) =
    match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure s -> walk_items (scope @ [ name ]) s
    | Parsetree.Pmod_constraint (inner, _) -> walk_mod scope name inner
    | Parsetree.Pmod_functor (_, inner) -> walk_mod scope name inner
    | _ -> ()
  in
  walk_items root_scope inp.str

module SS = Set.Make (String)

(* The variables a pattern binds. *)
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
