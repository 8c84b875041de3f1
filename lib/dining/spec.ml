open Dsim

(* The paper's Section-4 diner state machine: a single 4-cycle. Clients
   drive Thinking->Hungry (hungry ()) and Eating->Exiting (exit_eating ());
   algorithms drive Hungry->Eating and Exiting->Thinking. [Cell.set]
   refuses every other write. *)
let next = function
  | Types.Thinking -> Types.Hungry
  | Types.Hungry -> Types.Eating
  | Types.Eating -> Types.Exiting
  | Types.Exiting -> Types.Thinking

let legal_transition ~from_ ~to_ = Types.phase_equal (next from_) to_

let legal_transitions =
  List.map (fun p -> (p, next p)) Types.[ Thinking; Hungry; Eating; Exiting ]

let[@inline] precedes ts p ts' p' = ts < ts' || (ts = ts' && p < p')

type handle = {
  instance : string;
  self : Types.pid;
  phase : unit -> Types.phase;
  hungry : unit -> unit;
  exit_eating : unit -> unit;
  set_on_transition : (Types.phase -> Types.phase -> unit) -> unit;
}

module Cell = struct
  type t = {
    ctx : Context.t;
    instance : string;
    mutable cur : Types.phase;
    mutable callback : Types.phase -> Types.phase -> unit;
    mutable entered : Trace.event array;
        (* The [Transition] logged into each phase, reused on every later
           entry: a phase has one predecessor, so a phase change costs the
           trace only its entry. The array and each event are built on
           first use, so a deployment that runs a few ticks (the model
           checker's) builds nothing at creation and no event it does not
           log. *)
  }

  let unused = Trace.Crash { pid = -1 }

  let create ctx ~instance =
    {
      ctx;
      instance;
      cur = Types.Thinking;
      callback = (fun _ _ -> ());
      entered = [||];
    }

  let phase t = t.cur

  let slot = function
    | Types.Thinking -> 0
    | Types.Hungry -> 1
    | Types.Eating -> 2
    | Types.Exiting -> 3

  let transition t prev to_ =
    if Array.length t.entered = 0 then t.entered <- [| unused; unused; unused; unused |];
    let k = slot to_ in
    match t.entered.(k) with
    | Trace.Transition _ as ev -> ev
    | _ ->
        let ev =
          Trace.Transition
            { instance = t.instance; pid = t.ctx.Context.self; from_ = prev; to_ }
        in
        t.entered.(k) <- ev;
        ev

  let set t to_ =
    let prev = t.cur in
    if not (Types.phase_equal prev to_) then begin
      if not (legal_transition ~from_:prev ~to_) then
        invalid_arg
          (Printf.sprintf "Dining %s p%d: phase %s -> %s is off the cycle" t.instance
             t.ctx.Context.self (Types.phase_to_string prev) (Types.phase_to_string to_));
      t.cur <- to_;
      t.ctx.Context.log (transition t prev to_);
      t.callback prev to_
    end

  let handle t =
    let h =
      {
        instance = t.instance;
        self = t.ctx.Context.self;
        phase = (fun () -> t.cur);
        hungry =
          (fun () ->
            match t.cur with
            | Types.Thinking -> set t Types.Hungry
            | ph ->
                invalid_arg
                  (Printf.sprintf "Dining %s p%d: hungry() while %s" t.instance
                     t.ctx.Context.self (Types.phase_to_string ph)));
        exit_eating =
          (fun () ->
            match t.cur with
            | Types.Eating -> set t Types.Exiting
            | ph ->
                invalid_arg
                  (Printf.sprintf "Dining %s p%d: exit_eating() while %s" t.instance
                     t.ctx.Context.self (Types.phase_to_string ph)));
        set_on_transition = (fun f -> t.callback <- f);
      }
    in
    (t, h)
end
