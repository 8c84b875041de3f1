(* Summary statistics for the benchmark's samples. Quantiles are
   nearest-rank, the definition Obs.Quantile uses for its integer digests:
   the [q]-quantile of [n] samples is the one of rank [ceil (q * n)],
   clamped to rank 1. *)

let quantile samples q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0, 1]";
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(min n rank - 1)

let median samples = quantile samples 0.5

let mean samples =
  if Array.length samples = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* A percentile is reported only when at least ten samples lie beyond it,
   so p90 needs 100 samples and p99 needs 1000. *)
let min_samples = 10

let supported ~count q = float_of_int count *. (1.0 -. q) >= float_of_int min_samples -. 1e-9
