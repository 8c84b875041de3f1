(* Exact quantiles over integer samples.

   Representation: a sorted run-length encoding in two int arrays,
   distinct values and their counts, plus a small fixed-capacity pending
   buffer of raw samples. When the buffer fills it is sorted and merged
   into the runs in place, so a steady-state [add] allocates nothing.
   Compaction is deterministic: it happens at exactly the same points for
   the same sample sequence, and the merged runs are a pure function of
   the sample multiset, so two runs that observe the same values in the
   same order hold byte-identical state at every step. No sampling, no decay:
   the quantiles reported are exact nearest-rank statistics of everything
   observed. Memory is O(distinct values), which for tick-valued
   latencies is bounded by the horizon. *)

type t = {
  mutable values : int array; (* distinct values, strictly increasing; first [len] live *)
  mutable counts : int array; (* counts.(i) = occurrences of values.(i) *)
  mutable len : int;
  pending : int array;
  mutable pending_len : int;
  mutable n : int;
  mutable sum : int;
}

(* 128 slots keep the buffer (129 words) under the minor heap's
   large-block limit: a fuller buffer would put one block on the major
   heap for every digest, and a campaign makes one per run and one per
   merge. *)
let pending_capacity = 128

let create () =
  {
    values = [||];
    counts = [||];
    len = 0;
    pending = Array.make pending_capacity 0;
    pending_len = 0;
    n = 0;
    sum = 0;
  }

(* The first [len] slots of [a] in an array of [cap]. *)
let grown a ~cap ~len =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 len;
  b

(* Room for [need] runs; geometric, so amortised. *)
let reserve t need =
  let cap = Array.length t.values in
  if cap < need then begin
    let cap = Int.max need (2 * cap) in
    t.values <- grown t.values ~cap ~len:t.len;
    t.counts <- grown t.counts ~cap ~len:t.len
  end

(* Write the run [(v, c)] just below slot [w] of the merged block
   [w, top), or add [c] to slot [w] when it holds [v]; returns the
   block's new first slot. *)
let push_back t ~top w v c =
  if w < top && t.values.(w) = v then begin
    t.counts.(w) <- t.counts.(w) + c;
    w
  end
  else begin
    t.values.(w - 1) <- v;
    t.counts.(w - 1) <- c;
    w - 1
  end

(* Merge [nb] sorted runs, the values [bv.(j)] with the counts
   [counts.(j)] (1 each without [counts]), into the digest's runs, in
   place: the merge fills the arrays from the back, largest value first,
   never writing a slot that holds a run not yet read, then moves the
   merged block to the front. No second pair of arrays is kept, so a
   digest holds its runs once. Linear in the number of runs merged. *)
let merge_sorted ?counts t bv nb =
  let top = t.len + nb in
  reserve t top;
  let w = ref top and i = ref t.len and j = ref nb in
  while !i > 0 || !j > 0 do
    if !j = 0 || (!i > 0 && t.values.(!i - 1) >= bv.(!j - 1)) then begin
      decr i;
      w := push_back t ~top !w t.values.(!i) t.counts.(!i)
    end
    else begin
      decr j;
      w := push_back t ~top !w bv.(!j) (match counts with Some c -> c.(!j) | None -> 1)
    end
  done;
  let len = top - !w in
  Array.blit t.values !w t.values 0 len;
  Array.blit t.counts !w t.counts 0 len;
  t.len <- len

(* Insertion sort of p.(0 .. len-1): in place and allocation-free, which
   [Array.sort] is not, and quick at the buffer's size. *)
let sort_prefix p len =
  for i = 1 to len - 1 do
    let v = p.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && p.(!j) > v do
      p.(!j + 1) <- p.(!j);
      decr j
    done;
    p.(!j + 1) <- v
  done

let compact t =
  if t.pending_len > 0 then begin
    sort_prefix t.pending t.pending_len;
    merge_sorted t t.pending t.pending_len;
    t.pending_len <- 0
  end

let add t v =
  if t.pending_len = Array.length t.pending then compact t;
  t.pending.(t.pending_len) <- v;
  t.pending_len <- t.pending_len + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let count t = t.n
let sum t = t.sum

let min_value t =
  compact t;
  if t.n = 0 then None else Some t.values.(0)

let max_value t =
  compact t;
  if t.n = 0 then None else Some t.values.(t.len - 1)

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Quantile.quantile: q outside [0, 1]";
  compact t;
  if t.n = 0 then None
  else begin
    (* Nearest-rank: the smallest value whose cumulative count reaches
       rank = ceil(q * n), clamped to [1, n]. q = 0 is the minimum. *)
    let rank = max 1 (min t.n (int_of_float (ceil (q *. float_of_int t.n)))) in
    let rec go i acc =
      let acc = acc + t.counts.(i) in
      if acc >= rank then t.values.(i) else go (i + 1) acc
    in
    Some (go 0 0)
  end

let runs t =
  compact t;
  List.init t.len (fun i -> (t.values.(i), t.counts.(i)))

(* Multiset union: merge the two run arrays (one linear pass), so the
   result is independent of merge order — campaigns merging per-run
   digests in any order produce the same statistics, though campaigns still
   merge in run-index order for uniformity with gauges. *)
let merge ~into src =
  compact src;
  compact into;
  merge_sorted ~counts:src.counts into src.values src.len;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum

let json_of_opt = function Some v -> Json.Int v | None -> Json.Null

let to_json t =
  let q p = json_of_opt (quantile t p) in
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Int t.sum);
      ("min", json_of_opt (min_value t));
      ("max", json_of_opt (max_value t));
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ("p999", q 0.999);
    ]
