(* Interprocedural nondeterminism taint (rule D010).

   Seeds come from [Callgraph]: every direct touch of a nondeterminism
   source inside some top-level binding taints that binding. Taint then
   propagates caller-ward over the call graph to a fixpoint, and every call
   site in a lib file whose callee is tainted by a source in *another* file
   yields a D010 finding carrying the full sink -> ... -> source chain.

   Direct sites in the same file are deliberately not reported here — the
   per-file rules (D001/D002/D003) already flag them where they stand. D010
   exists for the laundering case those rules cannot see: a helper in one
   file wrapping the source, consumed from somewhere else. A suppressed
   direct site still seeds taint — the suppression justifies the local use,
   not every caller's transitive dependence on it — and each D010 sink can
   carry its own [simlint: allow D010] justification.

   Everything is deterministic: nodes, edges and seeds arrive sorted, the
   breadth-first propagation processes them in that order, and ties between
   several chains into one node are broken by the sorted queue, so the
   reported chain is stable across runs and machines. *)

type chain = {
  trail : string list;  (** node ids, this node first, seed-owning node last *)
  source : string;  (** offending path, e.g. "Random.int" *)
  source_file : string;
  source_line : int;
}

(* Caller-ward fixpoint from an arbitrary seed set: chain per reached node.
   Shared by D010 (nondeterminism sources) and D009 (module-level mutable
   state); determinism of the reported chains comes from the sorted seed
   and edge orders, as described above. *)
let propagate_from (g : Callgraph.t) (seeds : (string * chain) list) : (string, chain) Hashtbl.t =
  let tainted : (string, chain) Hashtbl.t = Hashtbl.create 64 in
  (* Reverse adjacency: callee -> call sites, in sorted edge order. *)
  let callers : (string, Callgraph.edge) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (e : Callgraph.edge) -> Hashtbl.add callers e.Callgraph.callee e) g.Callgraph.edges;
  let callers_of id = List.rev (Hashtbl.find_all callers id) in
  let queue = Queue.create () in
  List.iter
    (fun (node, c) ->
      if not (Hashtbl.mem tainted node) then begin
        Hashtbl.replace tainted node c;
        Queue.add node queue
      end)
    seeds;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let c = Hashtbl.find tainted id in
    List.iter
      (fun (e : Callgraph.edge) ->
        if not (Hashtbl.mem tainted e.Callgraph.caller) then begin
          Hashtbl.replace tainted e.Callgraph.caller { c with trail = e.Callgraph.caller :: c.trail };
          Queue.add e.Callgraph.caller queue
        end)
      (callers_of id)
  done;
  tainted

let propagate (g : Callgraph.t) : (string, chain) Hashtbl.t =
  propagate_from g
    (List.map
       (fun (s : Callgraph.seed) ->
         ( s.Callgraph.node,
           {
             trail = [ s.Callgraph.node ];
             source = s.Callgraph.source;
             source_file = s.Callgraph.file;
             source_line = s.Callgraph.line;
           } ))
       g.Callgraph.seeds)

let findings (g : Callgraph.t) : Finding.t list =
  let tainted = propagate g in
  let reported : (string * int * int * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.filter_map
    (fun (e : Callgraph.edge) ->
      match (Callgraph.find_node g e.Callgraph.caller, Hashtbl.find_opt tainted e.Callgraph.callee) with
      | Some caller_node, Some c
        when caller_node.Callgraph.lib
             && c.source_file <> caller_node.Callgraph.file
             && not (Hashtbl.mem reported (e.Callgraph.file, e.Callgraph.line, e.Callgraph.col, e.Callgraph.callee)) ->
          Hashtbl.replace reported (e.Callgraph.file, e.Callgraph.line, e.Callgraph.col, e.Callgraph.callee) ();
          let chain = String.concat " -> " (e.Callgraph.caller :: c.trail) in
          let seed_node = List.nth c.trail (List.length c.trail - 1) in
          Some
            (Finding.with_sym
               (Printf.sprintf "%s->%s:%s" e.Callgraph.caller seed_node c.source)
            @@ Finding.make ~rule:"D010" ~file:e.Callgraph.file ~line:e.Callgraph.line
               ~col:e.Callgraph.col
               ~msg:
                 (Printf.sprintf
                    "call chain %s reaches nondeterminism source `%s` (%s:%d); route it \
                     through the engine PRNG/Context or justify the sink"
                    chain c.source c.source_file c.source_line))
      | _ -> None)
    g.Callgraph.edges

(* D009: parallel dispatch from a function that (transitively) reaches
   module-level mutable state. Worker tasks submitted to [Exec.Pool] must
   be pure functions of their index — state shared across domains races,
   and even benign races make results depend on scheduling. Dispatch sites
   are recognised by the callee id's [Pool.map]/[Pool.iter] suffix, so the
   real [Exec.Pool] and the fixture corpus's stand-in both match. The check
   is an over-approximation (the whole enclosing function is considered,
   not just the worker closure): a reachable-but-unshared table deserves
   its own [simlint: allow D009] justification at the dispatch site. *)
let pool_dispatch_id id =
  match List.rev (String.split_on_char '.' id) with
  | ("map" | "iter") :: "Pool" :: _ -> true
  | _ -> false

let shared_state_findings (g : Callgraph.t) : Finding.t list =
  let reaches =
    propagate_from g
      (List.map
         (fun (m : Callgraph.mutdef) ->
           ( m.Callgraph.mnode,
             {
               trail = [ m.Callgraph.mnode ];
               source = m.Callgraph.head;
               source_file = m.Callgraph.mfile;
               source_line = m.Callgraph.mline;
             } ))
         g.Callgraph.mutables)
  in
  let reported : (string * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.filter_map
    (fun (e : Callgraph.edge) ->
      if not (pool_dispatch_id e.Callgraph.callee) then None
      else
        match Hashtbl.find_opt reaches e.Callgraph.caller with
        | Some c when not (Hashtbl.mem reported (e.Callgraph.file, e.Callgraph.line, e.Callgraph.col)) ->
            Hashtbl.replace reported (e.Callgraph.file, e.Callgraph.line, e.Callgraph.col) ();
            let chain = String.concat " -> " c.trail in
            let mut_node = List.nth c.trail (List.length c.trail - 1) in
            Some
              (Finding.with_sym
                 (Printf.sprintf "%s->%s:%s" e.Callgraph.caller mut_node c.source)
              @@ Finding.make ~rule:"D009" ~file:e.Callgraph.file ~line:e.Callgraph.line
                 ~col:e.Callgraph.col
                 ~msg:
                   (Printf.sprintf
                      "parallel dispatch while %s reaches module-level mutable state `%s` \
                       (%s:%d); worker tasks must be pure functions of their index"
                      chain c.source c.source_file c.source_line))
        | _ -> None)
    g.Callgraph.edges
