open Dsim

type dining_factory =
  Context.t ->
  instance:string ->
  participants:Types.pid * Types.pid ->
  Component.t * Dining.Spec.handle

let wf_ewx_factory ~n ~suspects : dining_factory =
 fun ctx ~instance ~participants ->
  let p, q = participants in
  let graph = Graphs.Conflict_graph.of_edges ~n [ (p, q) ] in
  let comp, handle, _debug =
    Dining.Wf_ewx.component ctx ~instance ~graph ~suspects:(suspects ctx.Context.self) ()
  in
  (comp, handle)

let ftme_factory ~suspects : dining_factory =
 fun ctx ~instance ~participants ->
  let p, q = participants in
  let comp, handle, _debug =
    Dining.Ftme.component ctx ~instance ~members:[ p; q ] ~suspects:(suspects ctx.Context.self)
      ()
  in
  (comp, handle)

type t = {
  name : string;
  watcher : Types.pid;
  subject : Types.pid;
  suspected : unit -> bool;
  witness : Witness.t;
  subject_threads : Subject.t;
  dx_instances : string array;
  witness_tag : string;
  subject_tag : string;
  w_handles : Dining.Spec.handle array;
  s_handles : Dining.Spec.handle array;
}

let create ~engine ?(detector_name = "extracted") ~dining ~watcher ~subject () =
  if watcher = subject then invalid_arg "Pair.create: watcher = subject";
  let name = Printf.sprintf "%d>%d" watcher subject in
  let dx_instances = Array.init 2 (fun i -> Printf.sprintf "dx%d[%s]" i name) in
  let witness_tag = Printf.sprintf "w[%s]" name in
  let subject_tag = Printf.sprintf "s[%s]" name in
  let wctx = Engine.ctx engine watcher in
  let sctx = Engine.ctx engine subject in
  let make_instance ctx i =
    let comp, handle =
      dining ctx ~instance:dx_instances.(i) ~participants:(watcher, subject)
    in
    Engine.register engine ctx.Context.self comp;
    handle
  in
  let w_handles = Array.init 2 (make_instance wctx) in
  let s_handles = Array.init 2 (make_instance sctx) in
  let witness_comp, witness =
    Witness.create wctx ~tag:witness_tag ~subject_pid:subject ~subject_tag ~dx:w_handles
      ~detector_name ()
  in
  Engine.register engine watcher witness_comp;
  let subject_comp, subject_threads =
    Subject.create sctx ~tag:subject_tag ~witness_pid:watcher ~witness_tag ~dx:s_handles ()
  in
  Engine.register engine subject subject_comp;
  {
    name;
    watcher;
    subject;
    suspected = (fun () -> witness.Witness.suspect_q);
    witness;
    subject_threads;
    dx_instances;
    witness_tag;
    subject_tag;
    w_handles;
    s_handles;
  }
