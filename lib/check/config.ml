open Dsim

type adversary =
  | Sync
  | Async of { max_delay : int; step_prob_pct : int }
  | Partial of { gst : int; pre_max_delay : int; delta : int; pre_step_prob_pct : int }
  | Bursty of { gst : int; calm : int; storm : int; storm_delay : int; delta : int }
  | Dls of { delta : int; phi : int }

type topology = Pair | Ring of int | Clique of int | Star of int | Path of int

type t = {
  algo : string;
  topology : topology;
  adversary : adversary;
  crashes : (Types.pid * Types.time) list;
  handicap : (Types.pid list * int) option;
  horizon : int;
  eat_ticks : int;
  seed : int64;
}

type family = [ `Sync | `Async | `Partial | `Bursty | `Dls ]

(* [`Dls] is deliberately absent: the fuzz generator never draws DLS
   configs (they are the model checker's input, constructed explicitly by
   [dinersim check]), and the pinned campaign digests depend on the draw
   sequence staying exactly as it was. *)
let all_families : family list = [ `Sync; `Async; `Partial; `Bursty ]

let family_of_string = function
  | "sync" -> Some `Sync
  | "async" -> Some `Async
  | "partial" -> Some `Partial
  | "bursty" -> Some `Bursty
  | "dls" -> Some `Dls
  | _ -> None

let family_to_string = function
  | `Sync -> "sync"
  | `Async -> "async"
  | `Partial -> "partial"
  | `Bursty -> "bursty"
  | `Dls -> "dls"

let family = function
  | Sync -> `Sync
  | Async _ -> `Async
  | Partial _ -> `Partial
  | Bursty _ -> `Bursty
  | Dls _ -> `Dls

(* All probabilities are integer percentages so that configs round-trip
   through JSON without any float-formatting subtleties. *)
let pct p = float_of_int p /. 100.0

let graph_of_topology = function
  | Pair -> Graphs.Conflict_graph.pair ()
  | Ring n -> Graphs.Conflict_graph.ring ~n
  | Clique n -> Graphs.Conflict_graph.clique ~n
  | Star n -> Graphs.Conflict_graph.star ~n
  | Path n -> Graphs.Conflict_graph.path ~n

let graph c = graph_of_topology c.topology

let n_procs c = Graphs.Conflict_graph.n (graph c)

let to_adversary c =
  let base =
    match c.adversary with
    | Sync -> Adversary.synchronous ()
    | Async { max_delay; step_prob_pct } ->
        Adversary.async_uniform ~max_delay ~step_prob:(pct step_prob_pct) ()
    | Partial { gst; pre_max_delay; delta; pre_step_prob_pct } ->
        Adversary.partial_sync ~gst ~pre_max_delay ~delta ~pre_step_prob:(pct pre_step_prob_pct)
          ()
    | Bursty { gst; calm; storm; storm_delay; delta } ->
        Adversary.bursty ~gst ~calm ~storm ~storm_delay ~delta ()
    | Dls { delta; phi } -> Adversary.dls ~delta ~phi ()
  in
  match c.handicap with
  | None -> base
  | Some (slow, factor_pct) -> Adversary.handicap ~slow ~factor:(pct factor_pct) base

(* ------------------------------------------------------------------ *)
(* Text renderings *)

let topology_to_string = function
  | Pair -> "pair"
  | Ring n -> Printf.sprintf "ring:%d" n
  | Clique n -> Printf.sprintf "clique:%d" n
  | Star n -> Printf.sprintf "star:%d" n
  | Path n -> Printf.sprintf "path:%d" n

let topology_of_string s =
  match String.split_on_char ':' s with
  | [ "pair" ] -> Some Pair
  | [ "ring"; n ] -> Option.bind (int_of_string_opt n) (fun n -> if n >= 3 then Some (Ring n) else None)
  | [ "clique"; n ] ->
      Option.bind (int_of_string_opt n) (fun n -> if n >= 2 then Some (Clique n) else None)
  | [ "star"; n ] -> Option.bind (int_of_string_opt n) (fun n -> if n >= 2 then Some (Star n) else None)
  | [ "path"; n ] -> Option.bind (int_of_string_opt n) (fun n -> if n >= 2 then Some (Path n) else None)
  | _ -> None

let describe c =
  Printf.sprintf "algo=%s topo=%s adv=%s crashes=[%s]%s horizon=%d eat=%d seed=%s" c.algo
    (topology_to_string c.topology)
    (to_adversary c).Adversary.name
    (String.concat "," (List.map (fun (p, t) -> Printf.sprintf "%d@%d" p t) c.crashes))
    (match c.handicap with
    | None -> ""
    | Some (slow, f) ->
        Printf.sprintf " slow=[%s]@%d%%" (String.concat "," (List.map string_of_int slow)) f)
    c.horizon c.eat_ticks
    (Core.Cmdline.seed_to_string c.seed)

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let adversary_to_json = function
  | Sync -> Obs.Json.Obj [ ("family", Obs.Json.Str "sync") ]
  | Async { max_delay; step_prob_pct } ->
      Obs.Json.Obj
        [
          ("family", Obs.Json.Str "async");
          ("max_delay", Obs.Json.Int max_delay);
          ("step_prob_pct", Obs.Json.Int step_prob_pct);
        ]
  | Partial { gst; pre_max_delay; delta; pre_step_prob_pct } ->
      Obs.Json.Obj
        [
          ("family", Obs.Json.Str "partial");
          ("gst", Obs.Json.Int gst);
          ("pre_max_delay", Obs.Json.Int pre_max_delay);
          ("delta", Obs.Json.Int delta);
          ("pre_step_prob_pct", Obs.Json.Int pre_step_prob_pct);
        ]
  | Bursty { gst; calm; storm; storm_delay; delta } ->
      Obs.Json.Obj
        [
          ("family", Obs.Json.Str "bursty");
          ("gst", Obs.Json.Int gst);
          ("calm", Obs.Json.Int calm);
          ("storm", Obs.Json.Int storm);
          ("storm_delay", Obs.Json.Int storm_delay);
          ("delta", Obs.Json.Int delta);
        ]
  | Dls { delta; phi } ->
      Obs.Json.Obj
        [
          ("family", Obs.Json.Str "dls");
          ("delta", Obs.Json.Int delta);
          ("phi", Obs.Json.Int phi);
        ]

let adversary_of_json j =
  let field k = Obs.Json.int (Obs.Json.get j k) in
  match Obs.Json.find j "family" with
  | Some (Obs.Json.Str "sync") -> Sync
  | Some (Obs.Json.Str "async") ->
      Async { max_delay = field "max_delay"; step_prob_pct = field "step_prob_pct" }
  | Some (Obs.Json.Str "partial") ->
      Partial
        {
          gst = field "gst";
          pre_max_delay = field "pre_max_delay";
          delta = field "delta";
          pre_step_prob_pct = field "pre_step_prob_pct";
        }
  | Some (Obs.Json.Str "bursty") ->
      Bursty
        {
          gst = field "gst";
          calm = field "calm";
          storm = field "storm";
          storm_delay = field "storm_delay";
          delta = field "delta";
        }
  | Some (Obs.Json.Str "dls") -> Dls { delta = field "delta"; phi = field "phi" }
  | _ -> failwith "Config.adversary_of_json: missing or unknown family"

let to_json c =
  Obs.Json.Obj
    [
      ("algo", Obs.Json.Str c.algo);
      ("topology", Obs.Json.Str (topology_to_string c.topology));
      ("adversary", adversary_to_json c.adversary);
      ( "crashes",
        Obs.Json.Arr
          (List.map (fun (p, t) -> Obs.Json.Str (Printf.sprintf "%d@%d" p t)) c.crashes) );
      ( "handicap",
        match c.handicap with
        | None -> Obs.Json.Null
        | Some (slow, f) ->
            Obs.Json.Obj
              [
                ("slow", Obs.Json.Arr (List.map (fun p -> Obs.Json.Int p) slow));
                ("factor_pct", Obs.Json.Int f);
              ] );
      ("horizon", Obs.Json.Int c.horizon);
      ("eat_ticks", Obs.Json.Int c.eat_ticks);
      ("seed", Obs.Json.Str (Core.Cmdline.seed_to_string c.seed));
    ]

let crash_of_string s =
  match String.split_on_char '@' s with
  | [ p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some p, Some t -> (p, t)
      | _ -> failwith (Printf.sprintf "Config.of_json: bad crash %S" s))
  | _ -> failwith (Printf.sprintf "Config.of_json: bad crash %S" s)

let of_json j =
  let str k = Obs.Json.str (Obs.Json.get j k) in
  let int k = Obs.Json.int (Obs.Json.get j k) in
  let topology =
    match topology_of_string (str "topology") with
    | Some t -> t
    | None -> failwith (Printf.sprintf "Config.of_json: bad topology %S" (str "topology"))
  in
  let crashes =
    List.map (fun e -> crash_of_string (Obs.Json.str e)) (Obs.Json.arr (Obs.Json.get j "crashes"))
  in
  let handicap =
    match Obs.Json.find j "handicap" with
    | None | Some Obs.Json.Null -> None
    | Some h ->
        Some
          ( List.map Obs.Json.int (Obs.Json.arr (Obs.Json.get h "slow")),
            Obs.Json.int (Obs.Json.get h "factor_pct") )
  in
  let seed =
    match Core.Cmdline.parse_seed (str "seed") with
    | Ok s -> s
    | Error e -> failwith ("Config.of_json: " ^ e)
  in
  {
    algo = str "algo";
    topology;
    adversary = adversary_of_json (Obs.Json.get j "adversary");
    crashes;
    handicap;
    horizon = int "horizon";
    eat_ticks = int "eat_ticks";
    seed;
  }

(* ------------------------------------------------------------------ *)
(* Random generation *)

let gen_topology rng =
  match Prng.int rng ~bound:5 with
  | 0 -> Pair
  | 1 -> Ring (Prng.int_in rng ~lo:3 ~hi:6)
  | 2 -> Clique (Prng.int_in rng ~lo:3 ~hi:5)
  | 3 -> Star (Prng.int_in rng ~lo:4 ~hi:6)
  | _ -> Path (Prng.int_in rng ~lo:4 ~hi:6)

(* Knob ranges are calibrated so that the monitored properties are
   *expected* to hold for the real algorithms at the given horizon: the
   adversary must stabilise (gst <= horizon/4) well before the suffix the
   ◇WX check inspects (horizon/2), and handicap factors stay >= 30% so
   hungry waits of slowed diners fit inside the wait-freedom slack. A
   violation reported by a campaign is therefore a genuine property
   failure, not a truncation artifact. *)
let gen_adversary rng ~family:fam ~horizon =
  match fam with
  | `Sync -> Sync
  | `Async ->
      Async
        {
          max_delay = Prng.int_in rng ~lo:2 ~hi:16;
          step_prob_pct = 50 + (10 * Prng.int_in rng ~lo:0 ~hi:4);
        }
  | `Partial ->
      Partial
        {
          gst = Prng.int_in rng ~lo:50 ~hi:(max 51 (horizon / 4));
          pre_max_delay = Prng.int_in rng ~lo:8 ~hi:60;
          delta = Prng.int_in rng ~lo:1 ~hi:6;
          pre_step_prob_pct = 40 + (10 * Prng.int_in rng ~lo:0 ~hi:4);
        }
  | `Bursty ->
      Bursty
        {
          gst = Prng.int_in rng ~lo:100 ~hi:(max 101 (horizon / 4));
          calm = Prng.int_in rng ~lo:30 ~hi:80;
          storm = Prng.int_in rng ~lo:20 ~hi:60;
          storm_delay = Prng.int_in rng ~lo:20 ~hi:100;
          delta = Prng.int_in rng ~lo:1 ~hi:6;
        }
  | `Dls ->
      (* Only reachable when the caller asks for the family explicitly
         (e.g. `dinersim fuzz --families dls`); [all_families] excludes it
         so default campaigns draw exactly what they always drew. *)
      Dls { delta = Prng.int_in rng ~lo:1 ~hi:6; phi = Prng.int_in rng ~lo:1 ~hi:4 }

(* The campaign monitors check wait-freedom for every live process, which
   is only a fair test of algorithms designed to survive crashes: hygienic
   runs with no failure detector at all (a crashed neighbour holds its
   forks forever), and FL1 only promises failure locality 1 (a crashed
   diner may legitimately starve its neighbours). Fuzzing those with
   crashes would report "violations" that are really documented
   limitations, so the generator keeps their runs crash-free. *)
let crash_tolerant = function "hygienic" | "fl1" -> false | _ -> true

let generate rng ~algos ~families ~max_horizon =
  if algos = [] then invalid_arg "Config.generate: empty algo list";
  if families = [] then invalid_arg "Config.generate: empty family list";
  let algo = Prng.pick rng (Array.of_list algos) in
  let topology = gen_topology rng in
  let horizon =
    let h = max 1600 max_horizon in
    match Prng.int rng ~bound:3 with 0 -> h / 2 | 1 -> 3 * h / 4 | _ -> h
  in
  let fam = Prng.pick rng (Array.of_list families) in
  let adversary = gen_adversary rng ~family:fam ~horizon in
  let n = Graphs.Conflict_graph.n (graph_of_topology topology) in
  let crashes =
    let k =
      match Prng.int rng ~bound:20 with
      | x when x < 9 -> 0
      | x when x < 16 -> 1
      | _ -> 2
    in
    let k = if crash_tolerant algo then min k (n - 1) else 0 in
    let pids = Array.init n Fun.id in
    Prng.shuffle rng pids;
    List.init k (fun i -> (pids.(i), Prng.int_in rng ~lo:200 ~hi:(max 201 (horizon / 2))))
    |> List.sort compare
  in
  let handicap =
    if Prng.chance rng ~p:0.25 then
      let crashed = List.map fst crashes in
      let candidates = List.filter (fun p -> not (List.mem p crashed)) (List.init n Fun.id) in
      match candidates with
      | [] -> None
      | _ ->
          let slow = List.nth candidates (Prng.int rng ~bound:(List.length candidates)) in
          Some ([ slow ], 30 + (20 * Prng.int_in rng ~lo:0 ~hi:2))
    else None
  in
  let eat_ticks = Prng.int_in rng ~lo:1 ~hi:4 in
  let seed = Prng.next_int64 rng in
  { algo; topology; adversary; crashes; handicap; horizon; eat_ticks; seed }
