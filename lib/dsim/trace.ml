type event =
  | Transition of { instance : string; pid : Types.pid; from_ : Types.phase; to_ : Types.phase }
  | Suspect of { detector : string; owner : Types.pid; target : Types.pid }
  | Trust of { detector : string; owner : Types.pid; target : Types.pid }
  | Crash of { pid : Types.pid }
  | Note of { pid : Types.pid; label : string; info : string }

type entry = { at : Types.time; ev : event }

(* Retained events live in fixed chunks of [chunk_size] under a spine,
   as two columns: event [i] sits in slot [i mod chunk_size] of chunk
   [i / chunk_size], its tick in [ticks] and the event itself in [evs].
   An append writes the two slots and builds no entry; growth allocates
   one chunk, and now and then a spine twice as long, and never copies an
   event. *)
type chunk = { ticks : int array; evs : event array }

type t = {
  mutable chunks : chunk array;
  mutable len : int;
  retain : bool;
  mutable subs : (entry -> unit) list; (* registration order *)
}

(* 32 slots, a 69-word chunk: a model-checker schedule keeps about ten
   events, and 64-slot chunks (133 words) raised perfbench mc's words
   per process-tick from 53.04 to 55.32 (see DESIGN.md, "Chunked
   trace", for what they did to extract's peak heap). *)
let chunk_bits = 5
let chunk_size = 1 lsl chunk_bits

let dummy = Crash { pid = -1 }
let no_chunk = { ticks = [||]; evs = [||] }

(* The spine is allocated at the first retained append, so a
   [~retain:false] trace never holds one. *)
let create ?(retain = true) () = { chunks = [||]; len = 0; retain; subs = [] }

let retained t = t.retain

let subscribe t f = t.subs <- t.subs @ [ f ]

let rec fan_out e = function
  | [] -> ()
  | f :: rest ->
      f e;
      fan_out e rest

(* A trace of at most one chunk holds it under a 2-slot spine. *)
let push t at ev =
  let c = t.len lsr chunk_bits and i = t.len land (chunk_size - 1) in
  if i = 0 then begin
    if c = Array.length t.chunks then begin
      let spine = Array.make (max 2 (2 * c)) no_chunk in
      Array.blit t.chunks 0 spine 0 c;
      t.chunks <- spine
    end;
    t.chunks.(c) <- { ticks = Array.make chunk_size 0; evs = Array.make chunk_size dummy }
  end;
  let chunk = t.chunks.(c) in
  chunk.ticks.(i) <- at;
  chunk.evs.(i) <- ev;
  t.len <- t.len + 1

(* An entry is built only for the subscribers, once, and shared by them. *)
let append t ~at ev =
  (match t.subs with [] -> () | subs -> fan_out { at; ev } subs);
  if t.retain then push t at ev

let length t = t.len

(* Chunk by chunk from [from]: the checkers' passes over a long trace
   skip the index arithmetic per event. Events appended by [f] are not
   visited. *)
let iter ?(from = 0) t f =
  let len = t.len and from = Int.max 0 from in
  for c = from lsr chunk_bits to ((len + chunk_size - 1) lsr chunk_bits) - 1 do
    let { ticks; evs } = t.chunks.(c) in
    let base = c lsl chunk_bits in
    for i = Int.max 0 (from - base) to Int.min chunk_size (len - base) - 1 do
      f ticks.(i) evs.(i)
    done
  done

let get t i =
  let { ticks; evs } = t.chunks.(i lsr chunk_bits) and k = i land (chunk_size - 1) in
  { at = ticks.(k); ev = evs.(k) }

let entries t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := get t i :: !acc
  done;
  !acc

let filter t p =
  let acc = ref [] in
  iter t (fun at ev ->
      let e = { at; ev } in
      if p e then acc := e :: !acc);
  List.rev !acc

let crash_times t =
  let m = ref Types.Pidmap.empty in
  iter t (fun at -> function
    | Crash { pid } when not (Types.Pidmap.mem pid !m) -> m := Types.Pidmap.add pid at !m
    | _ -> ());
  !m

let suspicion_flips t ~detector ~owner ~target =
  let acc = ref [] in
  iter t (fun at -> function
    | Suspect s when String.equal s.detector detector && s.owner = owner && s.target = target ->
        acc := (at, true) :: !acc
    | Trust s when String.equal s.detector detector && s.owner = owner && s.target = target ->
        acc := (at, false) :: !acc
    | _ -> ());
  List.rev !acc

let suspected_at t ~detector ~owner ~target ~at ~initially =
  let flips = suspicion_flips t ~detector ~owner ~target in
  List.fold_left (fun acc (ts, v) -> if ts <= at then v else acc) initially flips

let notes ?pid ?label t =
  let acc = ref [] in
  iter t (fun at ev ->
      match ev with
      | Note n ->
          if
            (match pid with Some p -> p = n.pid | None -> true)
            && match label with Some l -> String.equal l n.label | None -> true
          then acc := { at; ev } :: !acc
      | _ -> ());
  List.rev !acc

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

let csv_row at ev =
  let f = Printf.sprintf in
  let q = csv_field in
  match ev with
  | Transition { instance; pid; from_; to_ } ->
      f "%d,transition,%s,%d,,%s->%s" at (q instance) pid (Types.phase_to_string from_)
        (Types.phase_to_string to_)
  | Suspect { detector; owner; target } -> f "%d,suspect,%s,%d,%d," at (q detector) owner target
  | Trust { detector; owner; target } -> f "%d,trust,%s,%d,%d," at (q detector) owner target
  | Crash { pid } -> f "%d,crash,,%d,," at pid
  | Note { pid; label; info } -> f "%d,note,%s,%d,,%s" at (q label) pid (q info)

let to_csv t =
  let buf = Buffer.create (4096 + (t.len * 32)) in
  Buffer.add_string buf "at,kind,scope,actor,peer,detail\n";
  iter t (fun at ev ->
      Buffer.add_string buf (csv_row at ev);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let write_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))
