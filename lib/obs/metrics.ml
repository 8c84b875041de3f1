type counter = { mutable c : int }
type gauge = { mutable g : int }

type histogram = {
  bounds : int array; (* strictly increasing inclusive upper bounds *)
  counts : int array; (* length bounds + 1; last is overflow *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

type item =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Quantile of Quantile.t
  | Series of Window.t

type t = { tbl : (string, item) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Quantile _ -> "quantile"
  | Series _ -> "series"

(* Registration runs once per name: callers on a hot path (see
   Instrument) resolve a handle once and keep it, so what it allocates is
   paid once per name, not per event (test_obs counts the words per
   event). *)
let register t name make match_existing =
  match Hashtbl.find_opt t.tbl name with
  | Some item -> (
      match match_existing item with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name item)))
  | None ->
      let v, item = make () in
      Hashtbl.add t.tbl name item;
      v

let counter t name =
  register t name
    (fun () -> let c = { c = 0 } in (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name =
  register t name
    (fun () ->
      let g = { g = 0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set g v = g.g <- v
let gauge_value g = g.g

let new_histogram buckets =
  let bounds = Array.of_list buckets in
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must be strictly increasing"
  done;
  let counts =
    Array.make (Array.length bounds + 1) 0
  in
  let h = { bounds; counts; n = 0; sum = 0; min_v = max_int; max_v = min_int } in
  (h, Histogram h)

let histogram t name ~buckets =
  register t name
    (fun () -> new_histogram buckets)
    (function Histogram h -> Some h | _ -> None)

let quantile t name =
  register t name
    (fun () -> let q = Quantile.create () in (q, Quantile q))
    (function Quantile q -> Some q | _ -> None)

let series t name ~width =
  register t name
    (fun () -> let w = Window.create ~width in (w, Series w))
    (function Series w -> Some w | _ -> None)

(* Top level, not local to [observe]: a local [let rec] closure would be
   allocated on every sample. *)
let rec slot bounds v i =
  if i >= Array.length bounds then i else if v <= bounds.(i) then i else slot bounds v (i + 1)

let observe h v =
  let i = slot h.bounds v 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

(* Deterministic registry merge, for combining per-run (or per-worker)
   registries into one report. Merge is order-sensitive only for gauges, so
   callers merging in a canonical order (campaigns merge in run-index
   order) get a canonical result:
   - counters add;
   - histograms add bucket-wise (bounds must agree) and combine n/sum/min/max;
   - gauges are instantaneous quantities with no meaningful sum: the last
     merged value wins, i.e. the highest-index run's snapshot. *)
let merge ~into src =
  let merge_item name item =
    match (Hashtbl.find_opt into.tbl name, item) with
    | None, Counter c -> Hashtbl.add into.tbl name (Counter { c = c.c })
    | None, Gauge g -> Hashtbl.add into.tbl name (Gauge { g = g.g })
    | None, Histogram h ->
        Hashtbl.add into.tbl name
          (Histogram { h with bounds = Array.copy h.bounds; counts = Array.copy h.counts })
    | None, Quantile q ->
        let fresh = Quantile.create () in
        Quantile.merge ~into:fresh q;
        Hashtbl.add into.tbl name (Quantile fresh)
    | None, Series w ->
        let fresh = Window.create ~width:(Window.width w) in
        Window.merge ~into:fresh w;
        Hashtbl.add into.tbl name (Series fresh)
    | Some (Counter dst), Counter c -> dst.c <- dst.c + c.c
    | Some (Gauge dst), Gauge g -> dst.g <- g.g
    | Some (Histogram dst), Histogram h ->
        if dst.bounds <> h.bounds then
          invalid_arg (Printf.sprintf "Metrics.merge: histogram %S bucket bounds differ" name);
        Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts;
        dst.n <- dst.n + h.n;
        dst.sum <- dst.sum + h.sum;
        if h.min_v < dst.min_v then dst.min_v <- h.min_v;
        if h.max_v > dst.max_v then dst.max_v <- h.max_v
    | Some (Quantile dst), Quantile q -> Quantile.merge ~into:dst q
    | Some (Series dst), Series w -> Window.merge ~into:dst w
    | Some existing, _ ->
        invalid_arg
          (Printf.sprintf "Metrics.merge: %S is a %s in the target, a %s in the source" name
             (kind_name existing) (kind_name item))
  in
  (* Hashtbl order is nondeterministic; visit names sorted so creation
     order in [into] (hence nothing observable — to_json re-sorts — but
     also any future iteration) is canonical. *)
  Hashtbl.fold (fun name item acc -> (name, item) :: acc) src.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, item) -> merge_item name item)

let latency_buckets = [ 1; 3; 10; 30; 100; 300; 1000; 3000; 10000; 30000 ]
let depth_buckets = [ 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let histogram_json h =
  let buckets =
    List.init
      (Array.length h.counts)
      (fun i ->
        let le =
          if i < Array.length h.bounds then Json.Int h.bounds.(i) else Json.Str "inf"
        in
        Json.Obj [ ("le", le); ("count", Json.Int h.counts.(i)) ])
  in
  Json.Obj
    [
      ("buckets", Json.Arr buckets);
      ("count", Json.Int h.n);
      ("sum", Json.Int h.sum);
      ("min", if h.n = 0 then Json.Null else Json.Int h.min_v);
      ("max", if h.n = 0 then Json.Null else Json.Int h.max_v);
    ]

let to_json t =
  let sorted kind_of =
    Hashtbl.fold
      (fun name item acc -> match kind_of item with Some j -> (name, j) :: acc | None -> acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    [
      ("counters", Json.Obj (sorted (function Counter c -> Some (Json.Int c.c) | _ -> None)));
      ("gauges", Json.Obj (sorted (function Gauge g -> Some (Json.Int g.g) | _ -> None)));
      ( "histograms",
        Json.Obj (sorted (function Histogram h -> Some (histogram_json h) | _ -> None)) );
      ( "quantiles",
        Json.Obj (sorted (function Quantile q -> Some (Quantile.to_json q) | _ -> None)) );
      ("series", Json.Obj (sorted (function Series w -> Some (Window.to_json w) | _ -> None)));
    ]
