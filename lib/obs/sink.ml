open Dsim

type t = { emit : Trace.entry -> unit; close : unit -> unit }

let null = { emit = ignore; close = ignore }

let memory () =
  let tr = Trace.create () in
  ({ emit = (fun e -> Trace.append tr ~at:e.Trace.at e.Trace.ev); close = ignore }, tr)

(* ------------------------------------------------------------------ *)
(* JSONL codec *)

let entry_to_json (e : Trace.entry) =
  let base = [ ("at", Json.Int e.at) ] in
  Json.Obj
    (base
    @
    match e.ev with
    | Trace.Transition { instance; pid; from_; to_ } ->
        [
          ("ev", Json.Str "transition");
          ("instance", Json.Str instance);
          ("pid", Json.Int pid);
          ("from", Json.Str (Types.phase_to_string from_));
          ("to", Json.Str (Types.phase_to_string to_));
        ]
    | Trace.Suspect { detector; owner; target } ->
        [
          ("ev", Json.Str "suspect");
          ("detector", Json.Str detector);
          ("owner", Json.Int owner);
          ("target", Json.Int target);
        ]
    | Trace.Trust { detector; owner; target } ->
        [
          ("ev", Json.Str "trust");
          ("detector", Json.Str detector);
          ("owner", Json.Int owner);
          ("target", Json.Int target);
        ]
    | Trace.Crash { pid } -> [ ("ev", Json.Str "crash"); ("pid", Json.Int pid) ]
    | Trace.Note { pid; label; info } ->
        [
          ("ev", Json.Str "note");
          ("pid", Json.Int pid);
          ("label", Json.Str label);
          ("info", Json.Str info);
        ])

let phase_exn s =
  match Types.phase_of_string s with
  | Some p -> p
  | None -> failwith (Printf.sprintf "Sink.entry_of_json: unknown phase %S" s)

(* Pids index processes (and the span and monitor tables), so a negative
   one is malformed input. *)
let pid_exn j key =
  let pid = Json.int (Json.get j key) in
  if pid < 0 then failwith (Printf.sprintf "Sink.entry_of_json: negative %s %d" key pid);
  pid

let entry_of_json j =
  let at = Json.int (Json.get j "at") in
  let ev =
    match Json.str (Json.get j "ev") with
    | "transition" ->
        Trace.Transition
          {
            instance = Json.str (Json.get j "instance");
            pid = pid_exn j "pid";
            from_ = phase_exn (Json.str (Json.get j "from"));
            to_ = phase_exn (Json.str (Json.get j "to"));
          }
    | "suspect" ->
        Trace.Suspect
          {
            detector = Json.str (Json.get j "detector");
            owner = pid_exn j "owner";
            target = pid_exn j "target";
          }
    | "trust" ->
        Trace.Trust
          {
            detector = Json.str (Json.get j "detector");
            owner = pid_exn j "owner";
            target = pid_exn j "target";
          }
    | "crash" -> Trace.Crash { pid = pid_exn j "pid" }
    | "note" ->
        Trace.Note
          {
            pid = pid_exn j "pid";
            label = Json.str (Json.get j "label");
            info = Json.str (Json.get j "info");
          }
    | kind -> failwith (Printf.sprintf "Sink.entry_of_json: unknown event kind %S" kind)
  in
  { Trace.at; ev }

(* ------------------------------------------------------------------ *)
(* File sink *)

let jsonl_file path =
  let oc = open_out path in
  let closed = ref false in
  let emit e =
    if not !closed then begin
      output_string oc (Json.to_string (entry_to_json e));
      output_char oc '\n'
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      close_out oc
    end
  in
  { emit; close }

let tee sinks =
  {
    emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks);
  }

let attach tr sink =
  Trace.iter tr (fun at ev -> sink.emit { Trace.at; ev });
  Trace.subscribe tr sink.emit

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let tr = Trace.create () in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             let e = entry_of_json (Json.of_string line) in
             Trace.append tr ~at:e.Trace.at e.Trace.ev
           end
         done
       with End_of_file -> ());
      tr)
