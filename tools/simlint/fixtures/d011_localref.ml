(* simlint: allow D005 — fixture corpus file *)
(* D011: a local ref used only as [!r], [r := v], [incr r] or [decr r],
   with no closure mentioning it, lives in a mutable variable and is not
   an allocation site. A ref that is captured, returned, passed or stored
   is a heap block, and its [ref] call is flagged. *)
let bump r = incr r

let counters n =
  let i = ref 0 and total = ref n in
  while !i < n do
    total := !total + !i;
    incr i
  done;
  decr total;
  !total

let captured n =
  let hits = ref 0 in
  List.iter (fun x -> if x > n then incr hits) [ 1; 2; 3 ];
  !hits

let returned n =
  let r = ref n in
  r

let passed n =
  let r = ref n in
  bump r;
  !r

let stored n =
  let r = ref n in
  let cells = [| r |] in
  !(cells.(0))

(* simlint: hotpath *)
let tick n = counters n + captured n + !(returned n) + passed n + stored n
