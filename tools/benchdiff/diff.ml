(* Perf-regression gate over dinersim-bench/1 snapshots.

   Compares a candidate snapshot (a fresh bench-smoke run) against a
   baseline (the committed BENCH_dining.json), experiment by experiment,
   on the median wall time. An experiment regresses when its candidate
   median exceeds [threshold] times the baseline median AND the baseline
   median is at least [min_base_s] — sub-floor entries are timer noise
   (a 2 ms experiment doubling is scheduling jitter, not a regression)
   and are compared informationally but never gate.

   Wall times are inherently machine-dependent, so the RATIO is what the
   gate judges, and callers on shared/noisy hardware (CI) should pass a
   generous threshold. The diff itself is deterministic in its two input
   documents. *)

(* Experiments present in only one snapshot are not silently collapsed
   into side lists: they appear in [entries] with an explicit presence, so
   every key of either document has exactly one entry in the report. *)
type presence =
  | Compared (* in both snapshots: ratio judged *)
  | Removed (* baseline-only: fails the gate *)
  | Added (* candidate-only: informational *)

type entry = {
  key : string;
  base_s : float; (* 0. for Added entries *)
  cand_s : float; (* 0. for Removed entries *)
  ratio : float; (* cand_s /. base_s; infinity when base_s = 0; nan one-sided *)
  skipped : bool; (* baseline under the noise floor: never gates *)
  regressed : bool;
  presence : presence;
}

type t = {
  threshold : float;
  min_base_s : float;
  entries : entry list; (* baseline document order, then Added in candidate order *)
  missing : string list; (* baseline keys absent from the candidate *)
  extra : string list; (* candidate keys absent from the baseline *)
}

let schema_version = "benchdiff/1"
let bench_schema = "dinersim-bench/1"

let experiments ~what j =
  (match Obs.Json.find j "schema" with
  | Some (Obs.Json.Str s) when s = bench_schema -> ()
  | Some (Obs.Json.Str s) ->
      failwith (Printf.sprintf "%s has schema %S, want %S" what s bench_schema)
  | _ -> failwith (Printf.sprintf "%s has no schema tag" what));
  match Obs.Json.find j "experiments" with
  | Some (Obs.Json.Arr l) ->
      List.map
        (fun e ->
          match (Obs.Json.find e "key", Obs.Json.find e "wall_s") with
          | Some (Obs.Json.Str k), Some (Obs.Json.Float w) -> (k, w)
          | Some (Obs.Json.Str k), Some (Obs.Json.Int w) -> (k, float_of_int w)
          | _ ->
              failwith (Printf.sprintf "%s has a malformed experiment entry" what))
        l
  | _ -> failwith (Printf.sprintf "%s has no experiments array" what)

let of_json ~threshold ~min_base_s ~baseline ~candidate =
  if threshold <= 1.0 then invalid_arg "Benchdiff: threshold must exceed 1.0";
  if min_base_s < 0.0 then invalid_arg "Benchdiff: min_base_s must be non-negative";
  let base = experiments ~what:"baseline" baseline in
  let cand = experiments ~what:"candidate" candidate in
  let entries =
    List.map
      (fun (key, base_s) ->
        match List.assoc_opt key cand with
        | None ->
            {
              key;
              base_s;
              cand_s = 0.0;
              ratio = Float.nan;
              skipped = false;
              regressed = false;
              presence = Removed;
            }
        | Some cand_s ->
            let skipped = base_s < min_base_s in
            let ratio = if base_s > 0.0 then cand_s /. base_s else infinity in
            {
              key;
              base_s;
              cand_s;
              ratio;
              skipped;
              regressed = (not skipped) && ratio > threshold;
              presence = Compared;
            })
      base
    @ List.filter_map
        (fun (key, cand_s) ->
          if List.mem_assoc key base then None
          else
            Some
              {
                key;
                base_s = 0.0;
                cand_s;
                ratio = Float.nan;
                skipped = false;
                regressed = false;
                presence = Added;
              })
        cand
  in
  let keys want = List.filter_map (fun e -> if e.presence = want then Some e.key else None) entries in
  { threshold; min_base_s; entries; missing = keys Removed; extra = keys Added }

let of_files ~threshold ~min_base_s ~baseline ~candidate =
  of_json ~threshold ~min_base_s ~baseline:(Obs.Json.read_file ~path:baseline)
    ~candidate:(Obs.Json.read_file ~path:candidate)

let regressions t = List.filter_map (fun e -> if e.regressed then Some e.key else None) t.entries

(* Missing experiments fail the gate too: a candidate that silently
   dropped an experiment is not evidence the experiment still performs. *)
let ok t = regressions t = [] && t.missing = []

let entry_json e =
  match e.presence with
  | Removed ->
      Obs.Json.Obj
        [
          ("key", Obs.Json.Str e.key);
          ("base_s", Obs.Json.Float e.base_s);
          ("status", Obs.Json.Str "removed");
        ]
  | Added ->
      Obs.Json.Obj
        [
          ("key", Obs.Json.Str e.key);
          ("cand_s", Obs.Json.Float e.cand_s);
          ("status", Obs.Json.Str "added");
        ]
  | Compared ->
      Obs.Json.Obj
        [
          ("key", Obs.Json.Str e.key);
          ("base_s", Obs.Json.Float e.base_s);
          ("cand_s", Obs.Json.Float e.cand_s);
          ( "ratio",
            if Float.is_finite e.ratio then Obs.Json.Float e.ratio else Obs.Json.Str "inf" );
          ( "status",
            Obs.Json.Str
              (if e.regressed then "regressed" else if e.skipped then "skipped" else "ok") );
        ]

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema_version);
      ("threshold", Obs.Json.Float t.threshold);
      ("min_base_s", Obs.Json.Float t.min_base_s);
      ("ok", Obs.Json.Bool (ok t));
      ("regressions", Obs.Json.Arr (List.map (fun k -> Obs.Json.Str k) (regressions t)));
      ("missing", Obs.Json.Arr (List.map (fun k -> Obs.Json.Str k) t.missing));
      ("extra", Obs.Json.Arr (List.map (fun k -> Obs.Json.Str k) t.extra));
      ("entries", Obs.Json.Arr (List.map entry_json t.entries));
    ]

let pp fmt t =
  Format.fprintf fmt "benchdiff: threshold x%.2f, noise floor %.3fs@." t.threshold t.min_base_s;
  List.iter
    (fun e ->
      match e.presence with
      | Removed ->
          Format.fprintf fmt "  %-8s %8.3fs ->   (absent)  REMOVED from candidate@." e.key
            e.base_s
      | Added -> Format.fprintf fmt "  %-8s  (absent) -> %8.3fs  added (not gated)@." e.key e.cand_s
      | Compared ->
          Format.fprintf fmt "  %-8s %8.3fs -> %8.3fs  (x%.2f)%s@." e.key e.base_s e.cand_s
            e.ratio
            (if e.regressed then "  REGRESSED"
             else if e.skipped then "  (under noise floor)"
             else ""))
    t.entries;
  Format.fprintf fmt "  verdict: %s@." (if ok t then "ok" else "FAIL")
