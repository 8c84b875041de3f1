module Stats = struct
  type t = {
    count : int;
    mean : float;
    stddev : float;
    min_ : float;
    max_ : float;
    median : float;
  }

  let of_floats xs =
    if xs = [] then invalid_arg "Batch.Stats.of_floats: empty";
    let n = List.length xs in
    let nf = float_of_int n in
    let mean = List.fold_left ( +. ) 0.0 xs /. nf in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs /. nf
    in
    let sorted = List.sort compare xs in
    let median =
      let a = Array.of_list sorted in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    {
      count = n;
      mean;
      stddev = sqrt var;
      min_ = List.hd sorted;
      max_ = List.nth sorted (n - 1);
      median;
    }

  let of_ints xs = of_floats (List.map float_of_int xs)

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.1f sd=%.1f min=%.1f med=%.1f max=%.1f" t.count t.mean
      t.stddev t.min_ t.median t.max_

  let summary t = Printf.sprintf "%.0f±%.0f [%.0f,%.0f]" t.mean t.stddev t.min_ t.max_
end

let seeds ?(base = 42) n = List.init n (fun i -> Int64.of_int (base + (i * 7919)))

let sweep ~seeds f = List.map (fun seed -> f ~seed) seeds

let count_where ~seeds f =
  let hits = List.length (List.filter (fun seed -> f ~seed) seeds) in
  (hits, List.length seeds)
