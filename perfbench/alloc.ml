(* Exact allocation counts. In this runtime Gc.minor_words is exact
   while Gc.quick_stat's minor_words only advances at minor collections
   (and Gc.counters' minor figure is not in words), so the minor part
   comes from Gc.minor_words and the major and promoted parts, which are
   current, from Gc.counters. *)

type t = { minor : float; major : float; promoted : float }

let read () =
  let minor = Gc.minor_words () in
  let promoted, major =
    let _, p, m = Gc.counters () in
    (p, m)
  in
  { minor; major; promoted }

(* Words allocated so far: minor + major - promoted. *)
let words () =
  let r = read () in
  r.minor +. r.major -. r.promoted

(* What one [read] (or [words]) allocates itself. A delta between two
   reads contains exactly one, the earlier read's. *)
let probe =
  let a = words () in
  let b = words () in
  b -. a
