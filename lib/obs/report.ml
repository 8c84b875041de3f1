let schema_version = "dinersim-report/1"

type check = { name : string; holds : bool; detail : string }

let check ?(detail = "") name holds = { name; holds; detail }

let of_verdict name (v : Detectors.Properties.verdict) =
  {
    name;
    holds = v.Detectors.Properties.holds;
    detail = String.concat "; " v.Detectors.Properties.details;
  }

let check_to_json c =
  Json.Obj
    [ ("name", Json.Str c.name); ("holds", Json.Bool c.holds); ("detail", Json.Str c.detail) ]

let check_of_json j =
  match (Json.find j "name", Json.find j "holds") with
  | Some (Json.Str name), Some (Json.Bool holds) ->
      let detail = match Json.find j "detail" with Some (Json.Str d) -> d | _ -> "" in
      { name; holds; detail }
  | _ -> failwith "Report.check_of_json: malformed check entry"

let check_json = check_to_json

let make ~cmd ?seed ?horizon ?(config = []) ?metrics ?(checks = []) ?wall () =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("cmd", Json.Str cmd);
      ("seed", match seed with Some s -> Json.Str (Printf.sprintf "0x%Lx" s) | None -> Json.Null);
      ("horizon", match horizon with Some h -> Json.Int h | None -> Json.Null);
      ("config", Json.Obj config);
      ("checks", Json.Arr (List.map check_json checks));
      ( "metrics",
        match metrics with Some m -> Metrics.to_json m | None -> Json.Obj [] );
      ("wall_clock", Option.value ~default:Json.Null wall);
    ]

let validate j =
  (match Json.find j "schema" with
  | Some (Json.Str s) when s = schema_version -> ()
  | Some (Json.Str s) -> failwith (Printf.sprintf "Report.validate: unknown schema %S" s)
  | _ -> failwith "Report.validate: missing schema tag");
  (match Json.find j "cmd" with
  | Some (Json.Str _) -> ()
  | _ -> failwith "Report.validate: missing cmd");
  match Json.find j "checks" with
  | Some (Json.Arr checks) ->
      List.iter
        (fun c ->
          match (Json.find c "name", Json.find c "holds") with
          | Some (Json.Str _), Some (Json.Bool _) -> ()
          | _ -> failwith "Report.validate: malformed check entry")
        checks
  | _ -> failwith "Report.validate: missing checks array"

(* ------------------------------------------------------------------ *)
(* Campaign summaries: one document per fuzz (or other multi-run)
   campaign, aggregating per-run entries. Deterministic in the root seed,
   like run reports, except for the optional wall_clock field. *)

let campaign_schema_version = "dinersim-campaign/1"

let make_campaign ~cmd ~root_seed ~runs ~violations ?(config = []) ?metrics ?coverage ~entries
    ?wall () =
  Json.Obj
    ([
       ("schema", Json.Str campaign_schema_version);
       ("cmd", Json.Str cmd);
       ("root_seed", Json.Str (Printf.sprintf "0x%Lx" root_seed));
       ("runs", Json.Int runs);
       ("violations", Json.Int violations);
       ("config", Json.Obj config);
       ("entries", Json.Arr entries);
       ( "metrics",
         match metrics with Some m -> Metrics.to_json m | None -> Json.Obj [] );
     ]
    @ (match coverage with Some c -> [ ("coverage", c) ] | None -> [])
    @ [ ("wall_clock", Option.value ~default:Json.Null wall) ])

let validate_campaign j =
  (match Json.find j "schema" with
  | Some (Json.Str s) when s = campaign_schema_version -> ()
  | Some (Json.Str s) -> failwith (Printf.sprintf "Report.validate_campaign: unknown schema %S" s)
  | _ -> failwith "Report.validate_campaign: missing schema tag");
  (match (Json.find j "runs", Json.find j "violations") with
  | Some (Json.Int _), Some (Json.Int _) -> ()
  | _ -> failwith "Report.validate_campaign: missing runs/violations counters");
  (match Json.find j "entries" with
  | Some (Json.Arr _) -> ()
  | _ -> failwith "Report.validate_campaign: missing entries array");
  (* The coverage block is optional (older summaries predate it) but must
     be well-formed when present. *)
  match Json.find j "coverage" with
  | None -> ()
  | Some c -> (
      match (Json.find c "width", Json.find c "edges", Json.find c "bitmap") with
      | Some (Json.Int _), Some (Json.Int _), Some (Json.Str _) -> ()
      | _ -> failwith "Report.validate_campaign: malformed coverage block")

(* ------------------------------------------------------------------ *)
(* Model-checking reports: one document per exhaustive [dinersim check]
   run, written by lib/mc. Obs validates the shape only — obs cannot
   depend on the explorer — so `dinersim report` can vet all three schema
   families. *)

let mc_schema_version = "dinersim-mc/1"

let validate_mc j =
  (match Json.find j "schema" with
  | Some (Json.Str s) when s = mc_schema_version -> ()
  | Some (Json.Str s) -> failwith (Printf.sprintf "Report.validate_mc: unknown schema %S" s)
  | _ -> failwith "Report.validate_mc: missing schema tag");
  List.iter
    (fun k ->
      match Json.find j k with
      | Some (Json.Int _) -> ()
      | _ -> failwith (Printf.sprintf "Report.validate_mc: missing %s counter" k))
    [ "crash_schedules"; "schedules"; "pruned"; "violations"; "max_decisions" ];
  (match Json.find j "truncated" with
  | Some (Json.Bool _) -> ()
  | _ -> failwith "Report.validate_mc: missing truncated flag");
  match Json.find j "counterexamples" with
  | Some (Json.Arr cexs) ->
      List.iter
        (fun c ->
          match (Json.find c "digest", Json.find c "repro") with
          | Some (Json.Str _), Some (Json.Obj _) -> ()
          | _ -> failwith "Report.validate_mc: malformed counterexample entry")
        cexs
  | _ -> failwith "Report.validate_mc: missing counterexamples array"

let read_any ~path =
  let j = Json.read_file ~path in
  match Json.find j "schema" with
  | Some (Json.Str s) when s = campaign_schema_version ->
      validate_campaign j;
      `Campaign j
  | Some (Json.Str s) when s = mc_schema_version ->
      validate_mc j;
      `Mc j
  | _ ->
      validate j;
      `Run j

let passed j =
  match Json.find j "checks" with
  | Some (Json.Arr checks) ->
      List.for_all (fun c -> match Json.find c "holds" with Some (Json.Bool b) -> b | _ -> false) checks
  | _ -> false

let strip_wall_clock = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "wall_clock") fields)
  | j -> j

(* Latency-digest lines for the human summaries: one per non-empty
   exact digest. *)
let pp_metrics_latencies fmt j =
  match Option.bind (Json.find j "metrics") (fun m -> Json.find m "quantiles") with
  | Some (Json.Obj qs) ->
      List.iter
        (fun (name, q) ->
          let int k = match Json.find q k with Some (Json.Int n) -> Some n | _ -> None in
          match int "count" with
          | Some n when n > 0 ->
              let s k = match int k with Some v -> string_of_int v | None -> "-" in
              Format.fprintf fmt "  %s: n=%d p50=%s p90=%s p99=%s p999=%s (exact)@." name n
                (s "p50") (s "p90") (s "p99") (s "p999")
          | _ -> ())
        qs
  | _ -> ()

let pp_summary fmt j =
  let field k = match Json.find j k with Some v -> v | None -> Json.Null in
  Format.fprintf fmt "report: cmd=%s seed=%s horizon=%s@."
    (match field "cmd" with Json.Str s -> s | _ -> "?")
    (match field "seed" with Json.Str s -> s | Json.Int n -> string_of_int n | _ -> "-")
    (match field "horizon" with Json.Int n -> string_of_int n | _ -> "-");
  (match field "checks" with
  | Json.Arr [] -> Format.fprintf fmt "  (no checks)@."
  | Json.Arr checks ->
      let holds c = match Json.find c "holds" with Some (Json.Bool b) -> b | _ -> false in
      (* Failed checks first, so a failure is the first line under the
         header however many checks hold. *)
      let failed, held = List.partition (fun c -> not (holds c)) checks in
      List.iter
        (fun c ->
          let name = match Json.find c "name" with Some (Json.Str s) -> s | _ -> "?" in
          let detail = match Json.find c "detail" with Some (Json.Str s) -> s | _ -> "" in
          Format.fprintf fmt "  %-34s %s%s@." name
            (if holds c then "ok" else "FAIL")
            (if detail = "" then "" else " — " ^ detail))
        (failed @ held)
  | _ -> ());
  pp_metrics_latencies fmt j;
  Format.fprintf fmt "  all checks: %s@." (if passed j then "ok" else "FAIL")

let pp_campaign_summary fmt j =
  let str k = match Json.find j k with Some (Json.Str s) -> s | _ -> "?" in
  let int k = match Json.find j k with Some (Json.Int n) -> n | _ -> 0 in
  Format.fprintf fmt "campaign: cmd=%s root_seed=%s runs=%d violations=%d@." (str "cmd")
    (str "root_seed") (int "runs") (int "violations");
  (match Json.find j "entries" with
  | Some (Json.Arr entries) ->
      List.iter
        (fun e ->
          let run = match Json.find e "run" with Some (Json.Int n) -> n | _ -> -1 in
          let failed =
            match Json.find e "failed" with
            | Some (Json.Arr l) -> List.filter_map (function Json.Str s -> Some s | _ -> None) l
            | _ -> []
          in
          Format.fprintf fmt "  run %04d: %s@." run (String.concat ", " failed))
        entries
  | _ -> ());
  (match Json.find j "coverage" with
  | Some c ->
      let cint k = match Json.find c k with Some (Json.Int n) -> n | _ -> 0 in
      let growth =
        match Json.find c "growth" with
        | Some (Json.Arr g) -> List.filter_map (function Json.Int n -> Some n | _ -> None) g
        | _ -> []
      in
      let first = match growth with n :: _ -> n | [] -> 0 in
      Format.fprintf fmt "  coverage: %d/%d edge buckets (run 0: %d)@." (cint "edges")
        (cint "width") first
  | None -> ());
  pp_metrics_latencies fmt j;
  Format.fprintf fmt "  verdict: %s@." (if int "violations" = 0 then "ok" else "FAIL")

let pp_mc_summary fmt j =
  let int k = match Json.find j k with Some (Json.Int n) -> n | _ -> 0 in
  let truncated =
    match Json.find j "truncated" with Some (Json.Bool b) -> b | _ -> false
  in
  Format.fprintf fmt
    "mc: %d schedule(s) over %d crash schedule(s), %d branch(es) pruned, max %d decision(s)%s@."
    (int "schedules") (int "crash_schedules") (int "pruned") (int "max_decisions")
    (if truncated then " [TRUNCATED]" else "");
  (match Json.find j "counterexamples" with
  | Some (Json.Arr cexs) ->
      List.iter
        (fun c ->
          let str k = match Json.find c k with Some (Json.Str s) -> s | _ -> "?" in
          let idx = match Json.find c "schedule_index" with Some (Json.Int n) -> n | _ -> -1 in
          let failed =
            match Json.find c "failed" with
            | Some (Json.Arr l) -> List.filter_map (function Json.Str s -> Some s | _ -> None) l
            | _ -> []
          in
          Format.fprintf fmt "  schedule %d: %s (repro %s)@." idx
            (String.concat ", " failed) (str "digest"))
        cexs
  | _ -> ());
  pp_metrics_latencies fmt j;
  Format.fprintf fmt "  verdict: %s@."
    (if int "violations" = 0 && not truncated then "ok"
     else if int "violations" = 0 then "ok (truncated)"
     else "FAIL")
