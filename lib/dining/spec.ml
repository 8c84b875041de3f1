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
  }

  let create ctx ~instance = { ctx; instance; cur = Types.Thinking; callback = (fun _ _ -> ()) }

  let phase t = t.cur

  let set t next =
    let prev = t.cur in
    if not (Types.phase_equal prev next) then begin
      t.cur <- next;
      t.ctx.Context.log
        (Trace.Transition
           { instance = t.instance; pid = t.ctx.Context.self; from_ = prev; to_ = next });
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
