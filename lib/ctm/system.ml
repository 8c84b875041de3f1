open Dsim

type t = { store : Store.stats; clients : (Types.pid * Client.stats) list }

let setup ~engine ~with_cm ?compute_ticks () =
  let store_comp, store = Store.component (Engine.ctx engine 0) () in
  Engine.register engine 0 store_comp;
  let n = Engine.n engine in
  let pids = List.init (n - 1) (fun i -> i + 1) in
  let graph =
    Graphs.Conflict_graph.of_edges ~n
      (List.concat_map
         (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) pids)
         pids)
  in
  let client pid =
    let ctx = Engine.ctx engine pid in
    let cm =
      if with_cm then begin
        let fd, oracle = Detectors.Heartbeat.component ctx ~peers:pids () in
        Engine.register engine pid fd;
        let comp, handle, _ =
          Dining.Wf_ewx.component ctx ~instance:"cm" ~graph
            ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
            ()
        in
        Engine.register engine pid comp;
        Some handle
      end
      else None
    in
    let comp, st = Client.component ctx ~store:0 ?cm ?compute_ticks () in
    Engine.register engine pid comp;
    (pid, st)
  in
  { store; clients = List.map client pids }
