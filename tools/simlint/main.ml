(* simlint — determinism & simulation-hygiene linter.

   Usage: simlint [--root DIR] [--sarif FILE] [--force-lib] [--only RULES]
                  [DIR ...]

   Scans lib/ bin/ bench/ stress/ under the root by default. A finding is
   silenced only by an in-source [(* simlint: allow Dxxx — reason *)]
   comment. Exits 0 when no open finding remains, 1 otherwise, 2 on usage
   or I/O errors. [--sarif] additionally writes a SARIF 2.1.0 document for
   CI annotation. *)

open Simlint

let () =
  let root = ref "." in
  let sarif_path = ref "" in
  let force_lib = ref false in
  let only = ref [] in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root to scan (default .)");
      ("--sarif", Arg.Set_string sarif_path, "FILE also write a SARIF 2.1.0 report to FILE");
      ( "--force-lib",
        Arg.Set force_lib,
        " apply lib-only rules (D004/D005/D006/D007/D008) to every scanned file" );
      ( "--only",
        Arg.String
          (fun s ->
            only :=
              !only
              @ (String.split_on_char ',' s
                |> List.map String.trim
                |> List.filter (fun r -> r <> ""))),
        "RULES run only the named rules, comma-separated (e.g. D014,D018); repeatable" );
    ]
  in
  let usage = "simlint [--root DIR] [--sarif FILE] [DIR ...]" in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  let dirs = if !dirs = [] then Driver.default_dirs else List.rev !dirs in
  let result =
    try
      Driver.run ~dirs ~force_lib:!force_lib ~only:!only ~root:!root ()
    with e ->
      Printf.eprintf "simlint: %s\n" (Printexc.to_string e);
      exit 2
  in
  if !sarif_path <> "" then begin
    try Sarif.write ~path:!sarif_path result.Driver.findings
    with e ->
      Printf.eprintf "simlint: cannot write SARIF %s: %s\n" !sarif_path (Printexc.to_string e);
      exit 2
  end;
  Driver.print_human Format.std_formatter result;
  exit (if Driver.gate_ok result then 0 else 1)
