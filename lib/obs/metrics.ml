type counter = { mutable c : int }
type gauge = { mutable g : int }
type item = Counter of counter | Gauge of gauge | Quantile of Quantile.t
type t = { tbl : (string, item) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Quantile _ -> "quantile"

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

let quantile t name =
  register t name
    (fun () -> let q = Quantile.create () in (q, Quantile q))
    (function Quantile q -> Some q | _ -> None)

(* Deterministic registry merge, for combining per-run (or per-worker)
   registries into one report. Merge is order-sensitive only for gauges, so
   callers merging in a canonical order (campaigns merge in run-index
   order) get a canonical result:
   - counters add;
   - digests take the multiset union;
   - gauges are instantaneous quantities with no meaningful sum: the last
     merged value wins, i.e. the highest-index run's snapshot. *)
let merge ~into src =
  let merge_item name item =
    match (Hashtbl.find_opt into.tbl name, item) with
    | None, Counter c -> Hashtbl.add into.tbl name (Counter { c = c.c })
    | None, Gauge g -> Hashtbl.add into.tbl name (Gauge { g = g.g })
    | None, Quantile q ->
        let fresh = Quantile.create () in
        Quantile.merge ~into:fresh q;
        Hashtbl.add into.tbl name (Quantile fresh)
    | Some (Counter dst), Counter c -> dst.c <- dst.c + c.c
    | Some (Gauge dst), Gauge g -> dst.g <- g.g
    | Some (Quantile dst), Quantile q -> Quantile.merge ~into:dst q
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
      ( "quantiles",
        Json.Obj (sorted (function Quantile q -> Some (Quantile.to_json q) | _ -> None)) );
    ]
