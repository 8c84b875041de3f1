open Dsim

(* The paper's Section-4 diner state machine: a single 4-cycle. Clients
   drive Thinking->Hungry ([hungry]) and Eating->Exiting ([exit_eating]);
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

type observers = {
  ctx : Context.t;
  mutable callback : Types.phase -> Types.phase -> unit;
  mutable entered : Trace.event array;
      (* The [Transition] logged into each phase, reused on every later
         entry: a phase has one predecessor, so a phase change costs the
         trace only its entry. The array and each event are built on first
         use, so a deployment that runs a few ticks (the model checker's)
         builds nothing at creation and no event it does not log. *)
}

type handle = {
  instance : string;
  self : Types.pid;
  mutable phase : Types.phase;
  observers : observers;
}

module Cell = struct
  type t = handle

  let unused = Trace.Crash { pid = -1 }

  let create (ctx : Context.t) ~instance =
    {
      instance;
      self = ctx.Context.self;
      phase = Types.Thinking;
      observers = { ctx; callback = (fun _ _ -> ()); entered = [||] };
    }

  let slot = function
    | Types.Thinking -> 0
    | Types.Hungry -> 1
    | Types.Eating -> 2
    | Types.Exiting -> 3

  let transition t prev to_ =
    let o = t.observers in
    if Array.length o.entered = 0 then o.entered <- [| unused; unused; unused; unused |];
    let k = slot to_ in
    match o.entered.(k) with
    | Trace.Transition _ as ev -> ev
    | _ ->
        let ev = Trace.Transition { instance = t.instance; pid = t.self; from_ = prev; to_ } in
        o.entered.(k) <- ev;
        ev

  let set t to_ =
    let prev = t.phase in
    if not (Types.phase_equal prev to_) then begin
      if not (legal_transition ~from_:prev ~to_) then
        invalid_arg
          (Printf.sprintf "Dining %s p%d: phase %s -> %s is off the cycle" t.instance t.self
             (Types.phase_to_string prev) (Types.phase_to_string to_));
      t.phase <- to_;
      t.observers.ctx.Context.log (transition t prev to_);
      t.observers.callback prev to_
    end

  let handle t = t
end

let misuse h call =
  invalid_arg
    (Printf.sprintf "Dining %s p%d: %s() while %s" h.instance h.self call
       (Types.phase_to_string h.phase))

let hungry h =
  match h.phase with Types.Thinking -> Cell.set h Types.Hungry | _ -> misuse h "hungry"

let exit_eating h =
  match h.phase with Types.Eating -> Cell.set h Types.Exiting | _ -> misuse h "exit_eating"

let set_on_transition h f = h.observers.callback <- f
