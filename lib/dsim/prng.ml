(* The splitmix64 state is kept unboxed in an 8-byte buffer and read and
   written through the unchecked 64-bit bytes primitives. With [mix], the
   state advance and [float] inlined, ocamlopt keeps every intermediate
   [int64] and [float] in registers, so a draw allocates nothing; a
   mutable [int64] record field would box a fresh state (3 words) on each
   advance and the returned value on each call. Both primitives use the
   native byte order, so a state written by one is read back unchanged. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators", OOPSLA 2014. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t = create (next_int64 t)

(* A splitmix64 step keyed by the index alone: the child stream for index
   [i] is a pure function of [(seed, i)], unlike [split] whose children
   depend on how many draws preceded them. Campaign run [i] can therefore
   be executed on any worker, in any order, and see the same stream. *)
let derive seed ~index =
  if index < 0 then invalid_arg "Prng.derive: index must be non-negative";
  create (mix (Int64.add seed (Int64.mul golden_gamma (Int64.of_int (index + 1)))))

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t ~bound:(hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let chance t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t ~bound:(Array.length a))

(* Fisher-Yates over a.(0 .. len-1), leaving the tail untouched. The draw
   sequence for a given [len] is identical to [shuffle] on an array of
   exactly that length, so hot paths can reuse an oversized scratch buffer
   without perturbing replay. *)
let shuffle_prefix t a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Prng.shuffle_prefix: bad len";
  for i = len - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a = shuffle_prefix t a ~len:(Array.length a)
