type event =
  | Transition of { instance : string; pid : Types.pid; from_ : Types.phase; to_ : Types.phase }
  | Suspect of { detector : string; owner : Types.pid; target : Types.pid }
  | Trust of { detector : string; owner : Types.pid; target : Types.pid }
  | Crash of { pid : Types.pid }
  | Note of { pid : Types.pid; label : string; info : string }

type entry = { at : Types.time; ev : event }

(* Retained entries live in fixed chunks of [chunk_size] under a spine:
   entry [i] is [chunks.(i / chunk_size).(i mod chunk_size)]. An append
   copies no entry; growth allocates one chunk, and now and then a spine
   twice as long. *)
type t = {
  mutable chunks : entry array array;
  mutable len : int;
  retain : bool;
  mutable subs : (entry -> unit) list; (* registration order *)
}

let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits

let dummy = { at = 0; ev = Crash { pid = -1 } }

(* The spine is allocated at the first retained append, so a
   [~retain:false] trace never holds one. *)
let create ?(retain = true) () = { chunks = [||]; len = 0; retain; subs = [] }

let subscribe t f = t.subs <- t.subs @ [ f ]

let rec fan_out e = function
  | [] -> ()
  | f :: rest ->
      f e;
      fan_out e rest

(* A trace of at most one chunk (the model checker's 14-tick runs keep
   about ten entries each) holds one chunk under a 2-slot spine. *)
let push t e =
  let c = t.len lsr chunk_bits and i = t.len land (chunk_size - 1) in
  if i = 0 then begin
    if c = Array.length t.chunks then begin
      let spine = Array.make (max 2 (2 * c)) [||] in
      Array.blit t.chunks 0 spine 0 c;
      t.chunks <- spine
    end;
    t.chunks.(c) <- Array.make chunk_size dummy
  end;
  t.chunks.(c).(i) <- e;
  t.len <- t.len + 1

let[@inline] get t i = t.chunks.(i lsr chunk_bits).(i land (chunk_size - 1))

(* One entry, built only when someone keeps or observes it, and shared by
   the subscribers and the chunks. *)
let append t ~at ev =
  match t.subs with
  | [] ->
      if t.retain then
        push t { at; ev }
  | subs ->
      let e = { at; ev } in
      fan_out e subs;
      if t.retain then push t e

let length t = t.len

(* Chunk by chunk: the checkers' passes over a long trace skip [get]'s
   index arithmetic per entry. Entries appended by [f] are not visited. *)
let iter t f =
  let len = t.len in
  for c = 0 to ((len + chunk_size - 1) lsr chunk_bits) - 1 do
    let chunk = t.chunks.(c) in
    for i = 0 to Int.min chunk_size (len - (c lsl chunk_bits)) - 1 do
      f chunk.(i)
    done
  done

let entries t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := get t i :: !acc
  done;
  !acc

let filter t p =
  let acc = ref [] in
  iter t (fun e -> if p e then acc := e :: !acc);
  List.rev !acc

let crash_times t =
  let m = ref Types.Pidmap.empty in
  iter t (fun e ->
      match e.ev with
      | Crash { pid } when not (Types.Pidmap.mem pid !m) ->
          m := Types.Pidmap.add pid e.at !m
      | _ -> ());
  !m

let suspicion_flips t ~detector ~owner ~target =
  filter t (fun e ->
      match e.ev with
      | Suspect s -> String.equal s.detector detector && s.owner = owner && s.target = target
      | Trust s -> String.equal s.detector detector && s.owner = owner && s.target = target
      | _ -> false)
  |> List.map (fun e ->
         match e.ev with
         | Suspect _ -> (e.at, true)
         | Trust _ -> (e.at, false)
         | _ -> assert false)

let suspected_at t ~detector ~owner ~target ~at ~initially =
  let flips = suspicion_flips t ~detector ~owner ~target in
  List.fold_left (fun acc (ts, v) -> if ts <= at then v else acc) initially flips

let notes ?pid ?label t =
  filter t (fun e ->
      match e.ev with
      | Note n ->
          (match pid with Some p -> p = n.pid | None -> true)
          && (match label with Some l -> String.equal l n.label | None -> true)
      | _ -> false)

let pp_event fmt = function
  | Transition { instance; pid; from_; to_ } ->
      Format.fprintf fmt "[%s] p%d: %a -> %a" instance pid Types.pp_phase from_ Types.pp_phase to_
  | Suspect { detector; owner; target } ->
      Format.fprintf fmt "[%s] p%d suspects p%d" detector owner target
  | Trust { detector; owner; target } ->
      Format.fprintf fmt "[%s] p%d trusts p%d" detector owner target
  | Crash { pid } -> Format.fprintf fmt "CRASH p%d" pid
  | Note { pid; label; info } -> Format.fprintf fmt "note p%d %s %s" pid label info

let pp_entry fmt e = Format.fprintf fmt "t=%-6d %a" e.at pp_event e.ev

let dump ?limit fmt t =
  let n = match limit with Some l -> min l t.len | None -> t.len in
  for i = 0 to n - 1 do
    Format.fprintf fmt "%a@." pp_entry (get t i)
  done;
  if n < t.len then Format.fprintf fmt "... (%d more)@." (t.len - n)

(* RFC-4180: a field containing a comma, double quote, CR or LF is wrapped
   in double quotes, with embedded quotes doubled. *)
let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

let csv_row e =
  let f = Printf.sprintf in
  let q = csv_field in
  match e.ev with
  | Transition { instance; pid; from_; to_ } ->
      f "%d,transition,%s,%d,,%s->%s" e.at (q instance) pid (Types.phase_to_string from_)
        (Types.phase_to_string to_)
  | Suspect { detector; owner; target } -> f "%d,suspect,%s,%d,%d," e.at (q detector) owner target
  | Trust { detector; owner; target } -> f "%d,trust,%s,%d,%d," e.at (q detector) owner target
  | Crash { pid } -> f "%d,crash,,%d,," e.at pid
  | Note { pid; label; info } -> f "%d,note,%s,%d,,%s" e.at (q label) pid (q info)

let to_csv t =
  let buf = Buffer.create (4096 + (t.len * 32)) in
  Buffer.add_string buf "at,kind,scope,actor,peer,detail\n";
  iter t (fun e ->
      Buffer.add_string buf (csv_row e);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let write_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))
