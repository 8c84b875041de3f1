open Dsim

(* The paper's Section-4 diner state machine: a single 4-cycle. Clients
   drive Thinking->Hungry (hungry ()) and Eating->Exiting (exit_eating ());
   algorithms drive Hungry->Eating and Exiting->Thinking. Exported as data
   so the runtime monitors and the simlint D016 phase-transition rule share
   one source of truth. *)
let legal_transitions =
  [
    (Types.Thinking, Types.Hungry);
    (Types.Hungry, Types.Eating);
    (Types.Eating, Types.Exiting);
    (Types.Exiting, Types.Thinking);
  ]

let legal_transition ~from_ ~to_ =
  List.exists
    (fun (a, b) -> Types.phase_equal a from_ && Types.phase_equal b to_)
    legal_transitions

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
        (* The last [Transition] logged into each phase, reused while the
           phase is entered from the same one: a phase change then costs
           the trace only its entry. The array and each event are built on
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

  let transition t prev next =
    if Array.length t.entered = 0 then t.entered <- [| unused; unused; unused; unused |];
    let k = slot next in
    match t.entered.(k) with
    | Trace.Transition { from_; _ } as ev when Types.phase_equal from_ prev -> ev
    | _ ->
        let ev =
          Trace.Transition
            { instance = t.instance; pid = t.ctx.Context.self; from_ = prev; to_ = next }
        in
        t.entered.(k) <- ev;
        ev

  let set t next =
    let prev = t.cur in
    if not (Types.phase_equal prev next) then begin
      t.cur <- next;
      t.ctx.Context.log (transition t prev next);
      t.callback prev next
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
