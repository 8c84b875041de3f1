(* Exact allocation counts for the allocation tests. *)

(* Words allocated by [f] (minor + major - promoted). The same number of
   reads brackets every measurement, so differences between two
   measurements are the work's alone. *)
let words_of f =
  let read () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = read () in
  f ();
  read () -. before

(* Per-unit words of [feed n] in its steady state: [feed] is run once to
   warm up (scratch grown, every handle seen), then the cost of [n] more
   units is the difference between [2n] and [n]. *)
let steady_words ?(n = 2000) feed =
  feed n;
  let once = words_of (fun () -> feed n) in
  let twice = words_of (fun () -> feed (2 * n)) in
  (twice -. once) /. float_of_int n
