(* The determinism & simulation-hygiene rules, as one Parsetree walk.

   Rules (ids are stable; suppressions key on them):

   D001  wall-clock access ([Unix.gettimeofday], [Unix.time], [Unix.localtime],
         [Unix.gmtime], [Sys.time]) outside the allowlisted module set.
         Simulated protocols must read time from [Context.now]; the only
         legitimate wall-clock consumer is [Obs.Instrument], which segregates
         it from the deterministic report body.
   D002  ambient randomness: any [Random.*], [Hashtbl.randomize], or
         [Hashtbl.create ~random:...], plus [open Random] / module aliases of
         [Random]. All stochastic choice flows through the seeded
         [Dsim.Prng].
   D003  [Hashtbl.iter] anywhere, and [Hashtbl.fold] whose result is not
         immediately piped through [List.sort]/[List.sort_uniq]/
         [List.stable_sort]/[List.fast_sort]. Hashtable order is a function
         of the hash function and insertion history, so any behaviour that
         escapes a traversal unsorted is a determinism hazard (the
         consensus-coordinator bug class).
   D004  [Obj.magic] and physical equality [==] / [!=] in lib code. Physical
         equality distinguishes structurally equal values, so results depend
         on sharing decisions the GC and optimiser are free to change.
   D006  polymorphic compare/hash on non-scalar simulation state, lib only:
         [=] / [<>] / [compare] applied to a syntactically structured operand
         (tuple, record, array, non-empty list, constructor or variant with a
         payload), and any use of [Hashtbl.hash]/[Hashtbl.seeded_hash]/
         [Hashtbl.hash_param]. Polymorphic compare on structured state walks
         representation details (and raises on closures); the hash is an
         implementation artefact of the runtime. Typed comparators or pattern
         matching say what is actually meant.
   D007  catch-all [try ... with _ ->] in lib code. A wildcard handler
         swallows everything, including monitor-violation and invariant
         exceptions the harness relies on to fail loudly; name the exceptions
         the site can genuinely handle.
   D008  module-level mutable state in lib: a structure-top-level [let] bound
         to [ref ...], [Hashtbl.create ...], [Queue.create]/[Stack.create]/
         [Buffer.create]/[Bytes.create]/[Vec.create] or [Array.make].
         Campaign drivers run many engines in one process; state that lives
         at module level leaks between back-to-back runs, so run state must
         hang off the engine/component instance.

   (D005 — lib module missing its .mli — is a file-set rule; D009 —
   parallel worker dispatch reaching shared mutable state — and D010 —
   interprocedural nondeterminism taint — need the whole-project call
   graph. All three live outside this per-file walk, in [Driver] and
   [Taint].)

   The walk is purely syntactic: module aliasing or [open Unix] can evade
   path matching. That is acceptable for a hygiene gate — the point is to
   make the compliant spelling the path of least resistance, and reviewers
   catch deliberate evasion. *)

type config = {
  file : string;  (** reported path *)
  lib : bool;  (** D004 applies only to lib code *)
  wallclock_ok : bool;  (** file is in the D001 allowlist *)
}

let sort_heads = [ "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.fast_sort" ]
let wallclock = [ "Unix.gettimeofday"; "Unix.time"; "Unix.localtime"; "Unix.gmtime"; "Sys.time" ]
let poly_hash = [ "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param" ]

let mutable_heads =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create"; "Bytes.create";
    "Vec.create"; "Dsim.Vec.create"; "Array.make";
  ]

(* One row per rule id: short description used by the SARIF [rules] array and
   the DESIGN.md table. Kept here so adding a rule forces the metadata. *)
let catalog =
  [
    ("D001", "wall-clock access outside Obs.Instrument");
    ("D002", "ambient randomness outside the seeded Dsim.Prng");
    ("D003", "Hashtbl traversal order escapes unsorted");
    ("D004", "Obj.magic or physical equality in lib code");
    ("D005", "lib module without an .mli interface");
    ("D006", "polymorphic compare/hash on non-scalar simulation state");
    ("D007", "catch-all exception handler in lib code");
    ("D008", "module-level mutable state in lib code");
    ("D009", "parallel worker dispatch reaches shared mutable state");
    ("D010", "result depends on a nondeterminism source in another file");
    ("D012", "mutable state escapes into a parallel worker closure");
    ("D013", "quadratic accumulation inside a recursive loop");
    ("D014", "protocol message constructed but never handled");
    ("D018", "worker PRNG not derived from the root seed and index");
    ("E000", "source file failed to parse");
  ]

let rec flatten (li : Longident.t) =
  match li with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* "Stdlib.Random.int" and "Random.int" must match the same rules. *)
let path_of_ident (li : Longident.t) =
  match flatten li with
  | [] -> None
  | "Stdlib" :: (_ :: _ as rest) -> Some (String.concat "." rest)
  | parts -> Some (String.concat "." parts)

let path_of_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> path_of_ident txt
  | _ -> None

(* The function position of an application, or the expression itself. *)
let head_path (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (f, _) -> path_of_expr f
  | _ -> path_of_expr e

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let run (cfg : config) (str : Parsetree.structure) : Finding.t list =
  let findings = ref [] in
  let report ~loc rule msg =
    findings := Finding.of_location ~rule ~file:cfg.file ~msg loc :: !findings
  in
  (* Locations of [Hashtbl.fold] head identifiers that are sanctioned
     because the enclosing expression pipes the result straight into a
     sort. Keyed by location, which is unique per syntax node. *)
  let sanctioned : (Location.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let sanction (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, _) -> (
        match path_of_expr f with
        | Some "Hashtbl.fold" -> Hashtbl.replace sanctioned f.Parsetree.pexp_loc ()
        | _ -> ())
    | _ -> ()
  in
  let is_sort e = match head_path e with Some p -> List.mem p sort_heads | None -> false in
  (* D006: operands whose shape alone proves the compare is structural.
     Purely syntactic, so `a = b` on idents of a record type slips through —
     the rule exists to catch the spelled-out cases reviewers actually see. *)
  let rec structured (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_tuple _ | Parsetree.Pexp_record _ | Parsetree.Pexp_array _ -> true
    | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
    | Parsetree.Pexp_construct (_, Some _) -> true
    | Parsetree.Pexp_variant (_, Some _) -> true
    | Parsetree.Pexp_constraint (inner, _) -> structured inner
    | _ -> false
  in
  let check_ident ~loc path =
    if List.mem path wallclock || path = "gettimeofday" then begin
      if not cfg.wallclock_ok then
        report ~loc "D001"
          (Printf.sprintf
             "wall-clock access `%s` outside Obs.Instrument; simulated code must use \
              Context.now"
             path)
    end
    else if starts_with ~prefix:"Random." path || path = "Hashtbl.randomize" then
      report ~loc "D002"
        (Printf.sprintf "ambient randomness `%s`; use the seeded Dsim.Prng instead" path)
    else if path = "Obj.magic" then begin
      if cfg.lib then report ~loc "D004" "Obj.magic defeats the type system in lib code"
    end
    else if path = "==" || path = "!=" then begin
      if cfg.lib then
        report ~loc "D004"
          (Printf.sprintf
             "physical equality `%s` in lib code depends on sharing; use structural \
              (=)/(<>)"
             path)
    end
    else if List.mem path poly_hash then begin
      if cfg.lib then
        report ~loc "D006"
          (Printf.sprintf
             "`%s` bakes the runtime's representation hash into behaviour; derive an \
              explicit key instead"
             path)
    end
    else if path = "Hashtbl.iter" then
      report ~loc "D003"
        "Hashtbl.iter visits bindings in hash order; fold to a list and List.sort it \
         (or iterate sorted keys)"
    else if path = "Hashtbl.fold" && not (Hashtbl.mem sanctioned loc) then
      report ~loc "D003"
        "Hashtbl.fold result escapes in hash order; pipe it immediately through \
         List.sort"
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, args) -> (
        (* Sanctioning contexts for D003, checked before the children are
           visited so the inner fold sees itself cleared. *)
        (match (path_of_expr f, args) with
        | Some "|>", [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ] when is_sort rhs ->
            sanction lhs
        | Some "@@", [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ] when is_sort lhs ->
            sanction rhs
        | Some p, args when List.mem p sort_heads ->
            List.iter (fun (_, a) -> sanction a) args
        | _ -> ());
        (* D002: Hashtbl.create ~random:... *)
        (match path_of_expr f with
        | Some "Hashtbl.create"
          when List.exists (fun (l, _) -> l = Asttypes.Labelled "random") args ->
            report ~loc:e.Parsetree.pexp_loc "D002"
              "Hashtbl.create ~random randomizes iteration order across runs"
        | _ -> ());
        (* D006: polymorphic compare applied to a structured operand. *)
        match path_of_expr f with
        | Some (("=" | "<>" | "compare") as op)
          when cfg.lib
               && List.exists
                    (fun (l, a) -> l = Asttypes.Nolabel && structured a)
                    args ->
            report ~loc:e.Parsetree.pexp_loc "D006"
              (Printf.sprintf
                 "polymorphic `%s` on structured state; pattern-match or use a typed \
                  comparator"
                 op)
        | _ -> ())
    | Parsetree.Pexp_try (_, cases) when cfg.lib ->
        List.iter
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_any ->
                report ~loc:c.Parsetree.pc_lhs.Parsetree.ppat_loc "D007"
                  "catch-all `with _` swallows monitor violations; name the exceptions \
                   this site can handle"
            | _ -> ())
          cases
    | Parsetree.Pexp_ident { txt; _ } -> (
        match path_of_ident txt with
        | Some p -> check_ident ~loc:e.Parsetree.pexp_loc p
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  (* D002 also covers bringing Random into scope wholesale. *)
  let module_is_random (m : Parsetree.module_expr) =
    match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident { txt; _ } -> (
        match path_of_ident txt with
        | Some ("Random" | "Random.State") -> true
        | _ -> false)
    | _ -> false
  in
  let open_declaration (it : Ast_iterator.iterator) (o : Parsetree.open_declaration) =
    if module_is_random o.Parsetree.popen_expr then
      report ~loc:o.Parsetree.popen_loc "D002" "open Random pulls ambient randomness into scope";
    Ast_iterator.default_iterator.Ast_iterator.open_declaration it o
  in
  let module_binding (it : Ast_iterator.iterator) (mb : Parsetree.module_binding) =
    if module_is_random mb.Parsetree.pmb_expr then
      report ~loc:mb.Parsetree.pmb_loc "D002" "module alias of Random hides ambient randomness";
    Ast_iterator.default_iterator.Ast_iterator.module_binding it mb
  in
  let it = { Ast_iterator.default_iterator with expr; open_declaration; module_binding } in
  it.Ast_iterator.structure it str;
  (* D008: a dedicated walk over structure items (not the expression
     iterator), so it descends into nested [module S = struct .. end] but
     never into expressions — a function-local [let module] allocates per
     call and is fine. Functor bodies are skipped for the same reason:
     their state is per-application. *)
  let rec peel (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with Parsetree.Pexp_constraint (inner, _) -> peel inner | _ -> e
  in
  let rec scan_items items = List.iter scan_item items
  and scan_item (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, bindings) when cfg.lib ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match head_path (peel vb.Parsetree.pvb_expr) with
            | Some h when List.mem h mutable_heads ->
                report ~loc:vb.Parsetree.pvb_loc "D008"
                  (Printf.sprintf
                     "module-level `%s` persists across campaign runs in one process; \
                      hang run state off the engine or component instance"
                     h)
            | _ -> ())
          bindings
    | Parsetree.Pstr_module mb -> scan_mod mb.Parsetree.pmb_expr
    | Parsetree.Pstr_recmodule mbs ->
        List.iter (fun (mb : Parsetree.module_binding) -> scan_mod mb.Parsetree.pmb_expr) mbs
    | Parsetree.Pstr_include i -> scan_mod i.Parsetree.pincl_mod
    | _ -> ()
  and scan_mod (m : Parsetree.module_expr) =
    match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure s -> scan_items s
    | Parsetree.Pmod_constraint (inner, _) -> scan_mod inner
    | _ -> ()
  in
  scan_items str;
  List.rev !findings
