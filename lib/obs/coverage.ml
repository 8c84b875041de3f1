(* Schedule-coverage signatures.

   An AFL-style edge bitmap over the behavioural event stream of a run:
   each trace event is hashed to a 64-bit "site", each consecutive pair
   of sites *on the same track* (one track per diner per dining
   instance, per detector module owner, per note label, plus one crash
   track) forms an edge, and each edge sets one bit in a fixed-width
   bitmap. Two runs with the same signature exercised the same set of
   local event successions; a fuzzing campaign's union bitmap growing is
   the signal that new schedules are still being discovered.

   The hash is a hand-rolled FNV-1a over the event's rendered fields —
   deliberately not [Hashtbl.hash], which is a simlint D010 taint source
   (its output is not specified across OCaml versions, and signatures
   are pinned in tests and corpus artifacts). Everything here is a pure
   function of the trace, hence of the engine seed.

   The collector hashes the bytes of each rendered site string (see
   [hash_site]) without ever building it, and keeps the 64-bit state in
   two 32-bit halves held in native ints, so observing an event allocates
   nothing once its track has been seen. *)

open Dsim

let default_width = 4096

(* ------------------------------------------------------------------ *)
(* Finished signatures: plain data, so run outcomes carrying one still
   compare structurally. *)

type t = { width : int; bits : Bytes.t }

let empty ?(width = default_width) () =
  if width <= 0 || width mod 8 <> 0 then
    invalid_arg "Coverage.empty: width must be a positive multiple of 8";
  { width; bits = Bytes.make (width / 8) '\000' }

let width t = t.width

let check_widths fn a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Coverage.%s: signature widths differ (%d vs %d)" fn a.width b.width)

let union a b =
  check_widths "union" a b;
  let bits = Bytes.create (Bytes.length a.bits) in
  for i = 0 to Bytes.length bits - 1 do
    Bytes.unsafe_set bits i
      (Char.chr (Char.code (Bytes.get a.bits i) lor Char.code (Bytes.get b.bits i)))
  done;
  { width = a.width; bits }

let popcount_byte b =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go b 0

let edges t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte (Char.code c)) t.bits;
  !n

let new_edges ~seen t =
  check_widths "new_edges" seen t;
  let n = ref 0 in
  for i = 0 to Bytes.length t.bits - 1 do
    let fresh = Char.code (Bytes.get t.bits i) land lnot (Char.code (Bytes.get seen.bits i)) in
    n := !n + popcount_byte fresh
  done;
  !n

let equal a b = a.width = b.width && Bytes.equal a.bits b.bits

let to_hex t =
  let buf = Buffer.create (2 * Bytes.length t.bits) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) t.bits;
  Buffer.contents buf

let of_hex s =
  let len = String.length s in
  if len = 0 || len mod 2 <> 0 then invalid_arg "Coverage.of_hex: odd-length or empty string";
  let nibble = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | c -> invalid_arg (Printf.sprintf "Coverage.of_hex: non-hex character %C" c)
  in
  let bits = Bytes.create (len / 2) in
  for i = 0 to (len / 2) - 1 do
    Bytes.set bits i (Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
  done;
  { width = 4 * len; bits }

let digest t = Digest.to_hex (Digest.bytes t.bits)

let to_json t =
  Json.Obj
    [
      ("width", Json.Int t.width);
      ("edges", Json.Int (edges t));
      ("digest", Json.Str (digest t));
      ("bitmap", Json.Str (to_hex t));
    ]

(* ------------------------------------------------------------------ *)
(* Collector. *)

(* A track and the site of its previous event. Its key is [kind ^ name]
   (see [track_kind]), never built: "t:<instance>", "s:<detector>",
   "n:<label>" or "c". *)
type track = { kind : string; name : string; mutable prev_hi : int; mutable prev_lo : int }

type collector = {
  cwidth : int;
  cbits : Bytes.t;
  (* FNV-1a state: the 64-bit hash as its high and low 32-bit halves. *)
  mutable hi : int;
  mutable lo : int;
  (* Searched linearly (runs have a handful of tracks), never traversed
     in any other way. *)
  mutable tracks : track list;
}

let create ?(width = default_width) () =
  if width <= 0 || width mod 8 <> 0 then
    invalid_arg "Coverage.create: width must be a positive multiple of 8";
  { cwidth = width; cbits = Bytes.make (width / 8) '\000'; hi = 0; lo = 0; tracks = [] }

(* ---- FNV-1a, 64 bit: h <- (h xor b) * p mod 2^64 with
   p = 0x100000001b3 = 2^40 + 0x1b3, basis 0xcbf29ce484222325. With
   h = hi * 2^32 + lo, the low half of the product is lo' * 0x1b3 mod 2^32
   (lo' = lo xor b) and the high half takes that product's carry, hi *
   0x1b3, and the 2^40 term's lo' * 2^8; every intermediate fits in 42
   bits. *)

let mask32 = 0xffff_ffff

let reset c =
  c.hi <- 0xcbf29ce4;
  c.lo <- 0x84222325

let byte c b =
  let lo = c.lo lxor b in
  let m = lo * 0x1b3 in
  c.hi <- ((c.hi * 0x1b3) + (m lsr 32) + (lo lsl 8)) land mask32;
  c.lo <- m land mask32

let char c ch = byte c (Char.code ch)

let string c s =
  for i = 0 to String.length s - 1 do
    char c (String.unsafe_get s i)
  done

(* The digits of [-n] for [n <= 0], most significant first; counting on
   the negative side keeps [min_int] exact. *)
let rec neg_digits c n =
  if n <= -10 then neg_digits c (n / 10);
  byte c (Char.code '0' - (n mod 10))

(* The bytes of [Printf.sprintf "%d" n]. *)
let decimal c n =
  if n < 0 then begin
    char c '-';
    neg_digits c n
  end
  else neg_digits c (-n)

(* The 4 bytes of a 32-bit half, least significant first. *)
let word32 c w =
  for i = 0 to 3 do
    byte c ((w lsr (8 * i)) land 0xff)
  done

(* The 8 bytes of a 64-bit value, least significant first. *)
let word64 c ~hi ~lo =
  word32 c lo;
  word32 c hi

(* Leaves in [c.hi]/[c.lo] the hash of the event's site string, one of
     t|<instance>|<pid>|<from>|<to>      s|<detector>|<owner>|<target>|<1 or 0>
     c|<pid>                             n|<label>|<pid>|<info>
   (the 1 or 0 tells a suspicion from a trust). *)
let hash_site c (ev : Trace.event) =
  reset c;
  match ev with
  | Trace.Transition { instance; pid; from_; to_ } ->
      string c "t|";
      string c instance;
      char c '|';
      decimal c pid;
      char c '|';
      string c (Types.phase_to_string from_);
      char c '|';
      string c (Types.phase_to_string to_)
  | Trace.Suspect { detector; owner; target } | Trace.Trust { detector; owner; target } ->
      string c "s|";
      string c detector;
      char c '|';
      decimal c owner;
      char c '|';
      decimal c target;
      string c (match ev with Trace.Suspect _ -> "|1" | _ -> "|0")
  | Trace.Crash { pid } ->
      string c "c|";
      decimal c pid
  | Trace.Note { pid; label; info } ->
      string c "n|";
      string c label;
      char c '|';
      decimal c pid;
      char c '|';
      string c info

(* Track identity: events only form edges with their predecessor on the
   same logical strand. Strands are deliberately cross-process — all
   transitions of a dining instance share one strand, all flips of a
   detector module share another — so an edge records which process's
   event followed which, i.e. the schedule's interleaving (a per-process
   strand would collapse to the fixed phase cycle and lose exactly the
   information a schedule signature exists to capture). *)
let track_kind = function
  | Trace.Transition _ -> "t:"
  | Trace.Suspect _ | Trace.Trust _ -> "s:"
  | Trace.Crash _ -> "c"
  | Trace.Note _ -> "n:"

let track_name = function
  | Trace.Transition { instance; _ } -> instance
  | Trace.Suspect { detector; _ } | Trace.Trust { detector; _ } -> detector
  | Trace.Crash _ -> ""
  | Trace.Note { label; _ } -> label

(* Adds a track whose previous site is the track-start sentinel, the hash
   of "start|<key>|0", so the first edge of a track is distinct per
   track. *)
let add_track c kind name =
  reset c;
  string c "start|";
  string c kind;
  string c name;
  string c "|0";
  let t = { kind; name; prev_hi = c.hi; prev_lo = c.lo } in
  c.tracks <- t :: c.tracks;
  t

let rec find_track c kind name = function
  | t :: rest ->
      if String.equal t.kind kind && String.equal t.name name then t
      else find_track c kind name rest
  | [] -> add_track c kind name

let set_bit bits idx =
  let byte = idx / 8 and mask = 1 lsl (idx mod 8) in
  Bytes.set bits byte (Char.chr (Char.code (Bytes.get bits byte) lor mask))

(* The edge is the hash of the previous site's 8 bytes then the current
   site's; its bucket is its low 62 bits modulo the width (the bits that
   survive Int64.to_int and [land max_int]). *)
let observe c ev =
  let t = find_track c (track_kind ev) (track_name ev) c.tracks in
  hash_site c ev;
  let cur_hi = c.hi and cur_lo = c.lo in
  reset c;
  word64 c ~hi:t.prev_hi ~lo:t.prev_lo;
  word64 c ~hi:cur_hi ~lo:cur_lo;
  set_bit c.cbits ((((c.hi land 0x3fff_ffff) lsl 32) lor c.lo) mod c.cwidth);
  t.prev_hi <- cur_hi;
  t.prev_lo <- cur_lo

let attach c tr =
  Trace.iter tr (fun _ ev -> observe c ev);
  Trace.subscribe tr (fun e -> observe c e.Trace.ev)

let snapshot c = { width = c.cwidth; bits = Bytes.copy c.cbits }
