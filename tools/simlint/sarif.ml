(* SARIF 2.1.0 emitter.

   One run, one tool ("simlint"), one result per finding. The document is
   built with the canonical Obs.Json printer, so its bytes are a pure
   function of the findings — the fixture test pins the fixture corpus'
   SARIF byte-exactly, and CI can upload the file for PR annotation without
   any post-processing.

   Disposition mapping: an open finding is a plain result; a suppressed one
   carries [{"kind":"inSource"}] (the [simlint: allow] comment).
   Code-scanning UIs hide suppressed results but keep them auditable. *)

let version = "2.1.0"
let schema_uri = "https://json.schemastore.org/sarif-2.1.0.json"
let tool_version = "4.0.0"

let level_of (s : Finding.severity) =
  match s with Finding.Error -> "error" | Finding.Warning -> "warning" | Finding.Note -> "note"

let rule_json (id, short) =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Str id);
      ("shortDescription", Obs.Json.Obj [ ("text", Obs.Json.Str short) ]);
      ( "defaultConfiguration",
        Obs.Json.Obj [ ("level", Obs.Json.Str (level_of (Finding.severity_of_rule id))) ] );
    ]

let result_json ((f : Finding.t), (status : Finding.status)) =
  let location =
    Obs.Json.Obj
      [
        ( "physicalLocation",
          Obs.Json.Obj
            [
              ( "artifactLocation",
                Obs.Json.Obj [ ("uri", Obs.Json.Str f.Finding.file) ] );
              ( "region",
                Obs.Json.Obj
                  [
                    ("startLine", Obs.Json.Int f.Finding.line);
                    ("startColumn", Obs.Json.Int (f.Finding.col + 1));
                  ] );
            ] );
      ]
  in
  let base =
    [
      ("ruleId", Obs.Json.Str f.Finding.rule);
      ("level", Obs.Json.Str (level_of f.Finding.severity));
      ("message", Obs.Json.Obj [ ("text", Obs.Json.Str f.Finding.msg) ]);
      ("locations", Obs.Json.Arr [ location ]);
    ]
  in
  (* Interprocedural findings expose their symbol-chain key as a stable
     fingerprint, so code-scanning dedup survives line drift. *)
  let fingerprints =
    match f.Finding.sym with
    | Some s ->
        [ ("partialFingerprints", Obs.Json.Obj [ ("simlintSym/v1", Obs.Json.Str s) ]) ]
    | None -> []
  in
  let base = base @ fingerprints in
  let suppressions =
    match status with
    | Finding.Open -> []
    | Finding.Suppressed ->
        [ ("suppressions", Obs.Json.Arr [ Obs.Json.Obj [ ("kind", Obs.Json.Str "inSource") ] ]) ]
  in
  Obs.Json.Obj (base @ suppressions)

let of_findings (findings : (Finding.t * Finding.status) list) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("version", Obs.Json.Str version);
      ("$schema", Obs.Json.Str schema_uri);
      ( "runs",
        Obs.Json.Arr
          [
            Obs.Json.Obj
              [
                ( "tool",
                  Obs.Json.Obj
                    [
                      ( "driver",
                        Obs.Json.Obj
                          [
                            ("name", Obs.Json.Str "simlint");
                            ("version", Obs.Json.Str tool_version);
                            ( "informationUri",
                              Obs.Json.Str "DESIGN.md#determinism-discipline-toolssimlint" );
                            ("rules", Obs.Json.Arr (List.map rule_json Rules.catalog));
                          ] );
                    ] );
                ("columnKind", Obs.Json.Str "utf16CodeUnits");
                ("results", Obs.Json.Arr (List.map result_json findings));
              ];
          ] );
    ]

let to_string findings = Obs.Json.to_string (of_findings findings)

let write ~path findings =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string findings);
      output_char oc '\n')
