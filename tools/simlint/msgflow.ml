(* Protocol message-flow analysis (rule D014).

   The engine routes messages through the extensible variant [Dsim.Msg.t],
   so OCaml's exhaustiveness checker is structurally blind to the protocol
   layer: every [match] on a message needs a catch-all arm, and nothing in
   the type system notices when an algorithm starts sending a constructor
   nobody handles. This pass closes that gap syntactically:

   D014  a constructor declared via [type Msg.t += C ...] is constructed
         somewhere in the scanned tree, but no handler arm ([| C ... ->])
         matches it anywhere. The finding lands on the (first) construction
         site and names the enclosing top-level binding and the declaration
         site.

   Matching is keyed on the constructor's *name*, not its module path:
   declarations are indexed project-wide and a pattern [Wf_ewx.Fork] and a
   bare [Fork] both count as handlers for a declared [Fork]. That makes the
   pass module-blind (two libraries declaring a same-named constructor
   alias each other), which is the deliberate cheap-over-sound trade the
   whole linter makes: false negatives are acceptable, nondeterministic or
   spurious findings are not. Constructors that are declared but never
   constructed in the scanned tree (e.g. the built-in [Unit_msg] family,
   which only tests exercise) do not fire. *)

module SS = Set.Make (String)

type decl = { ctor : string; dfile : string; dline : int }

(* [type Msg.t += ...] and [type Dsim.Msg.t += ...] both declare protocol
   messages; any other extensible type is not our business. Inside
   [lib/dsim/msg.ml] itself the extension is spelled on the bare [t], so a
   file whose module is [Msg] counts its own [type t +=] too. *)
let is_msg_t ~in_msg_module parts =
  match List.rev parts with
  | "t" :: "Msg" :: _ -> true
  | [ "t" ] -> in_msg_module
  | _ -> false

let declared (inputs : Callgraph.input list) : decl list =
  let out = ref [] in
  let walk_input (inp : Callgraph.input) =
    let in_msg_module = Callgraph.module_of_file inp.Callgraph.rel = "Msg" in
    let type_extension (it : Ast_iterator.iterator) (te : Parsetree.type_extension) =
      if is_msg_t ~in_msg_module (Rules.flatten te.Parsetree.ptyext_path.Location.txt) then
        List.iter
          (fun (ec : Parsetree.extension_constructor) ->
            match ec.Parsetree.pext_kind with
            | Parsetree.Pext_decl _ ->
                let line, _ = Callgraph.pos_of ec.Parsetree.pext_loc in
                out :=
                  { ctor = ec.Parsetree.pext_name.Location.txt; dfile = inp.Callgraph.rel; dline = line }
                  :: !out
            | Parsetree.Pext_rebind _ -> ())
          te.Parsetree.ptyext_constructors;
      Ast_iterator.default_iterator.Ast_iterator.type_extension it te
    in
    let it = { Ast_iterator.default_iterator with type_extension } in
    it.Ast_iterator.structure it inp.Callgraph.str
  in
  List.iter walk_input inputs;
  (* Sorted for determinism; duplicates (same name re-declared in another
     file) collapse to the first declaration site. *)
  List.sort_uniq compare (List.rev !out)

let last_segment li = match List.rev (Rules.flatten li) with s :: _ -> Some s | _ -> None

type construction = { cnode : string; cfile : string; cline : int; ccol : int }

let findings (inputs : Callgraph.input list) : Finding.t list =
  let decls = declared inputs in
  let decl_names = List.fold_left (fun s d -> SS.add d.ctor s) SS.empty decls in
  let handled = ref SS.empty in
  let constructions : (string, construction) Hashtbl.t = Hashtbl.create 32 in
  let walk_input (inp : Callgraph.input) =
    Callgraph.iter_bindings inp (fun ~id ~is_rec:_ body ->
        let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_construct ({ txt; loc }, _) -> (
              match last_segment txt with
              | Some s when SS.mem s decl_names ->
                  let line, col = Callgraph.pos_of loc in
                  if not (Hashtbl.mem constructions s) then
                    Hashtbl.add constructions s
                      { cnode = id; cfile = inp.Callgraph.rel; cline = line; ccol = col }
                  else begin
                    (* Keep the first site in deterministic (file, line, col)
                       order so the reported site is stable across walks. *)
                    let cur = Hashtbl.find constructions s in
                    let cand = { cnode = id; cfile = inp.Callgraph.rel; cline = line; ccol = col } in
                    if
                      compare (cand.cfile, cand.cline, cand.ccol) (cur.cfile, cur.cline, cur.ccol)
                      < 0
                    then Hashtbl.replace constructions s cand
                  end
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.expr it e
        in
        let pat (it : Ast_iterator.iterator) (p : Parsetree.pattern) =
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_construct ({ txt; _ }, _) -> (
              match last_segment txt with
              | Some s when SS.mem s decl_names -> handled := SS.add s !handled
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.pat it p
        in
        let it = { Ast_iterator.default_iterator with expr; pat } in
        it.Ast_iterator.expr it body)
  in
  List.iter walk_input inputs;
  List.filter_map
      (fun d ->
        match Hashtbl.find_opt constructions d.ctor with
        | Some c when not (SS.mem d.ctor !handled) ->
            Some
              (Finding.with_sym
                 (Printf.sprintf "%s->%s:unhandled" c.cnode d.ctor)
                 (Finding.make ~rule:"D014" ~file:c.cfile ~line:c.cline ~col:c.ccol
                    ~msg:
                      (Printf.sprintf
                         "protocol message `%s` (declared %s:%d) is constructed in %s but no \
                          handler arm anywhere matches it — the engine will deliver it into \
                          a catch-all and the protocol silently stalls"
                         d.ctor d.dfile d.dline c.cnode)))
        | _ -> None)
      decls
