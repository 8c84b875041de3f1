(* File discovery, rule dispatch, and finding disposition.

   v2: the driver parses every requested .ml under the root ONCE, runs the
   per-file rules ([Rules]) and the file-set rule D005, then hands all the
   parsed structures to [Callgraph]/[Taint] for the whole-project
   interprocedural pass (D010). Each finding is classified as open or
   suppressed (a [simlint: allow] comment at the site); only open findings
   fail the gate. *)

type result = {
  findings : (Finding.t * Finding.status) list;  (** sorted, deterministic *)
  files_scanned : int;
}

let default_dirs = [ "lib"; "bin"; "bench"; "stress" ]

(* D001 allowlist: the one module allowed to touch the wall clock. Matching
   is on root-relative paths, normalised to '/'. Sources inside an
   allowlisted file do not seed D010 taint either — Obs.Instrument
   segregates its clock reads from deterministic report bodies, so callers
   do not inherit nondeterminism from it. *)
let wallclock_allowlist = [ "lib/obs/instrument.ml" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_structure ~path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

(* Recursive listing of .ml files, relative to [root], sorted so two runs
   visit files in the same order on any filesystem. *)
let rec ml_files root rel =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           if name = "_build" || name = ".git" then []
           else ml_files root (Filename.concat rel name))
  else if Filename.check_suffix rel ".ml" then [ rel ]
  else []

let is_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

(* One file's worth of parse state, shared by the per-file rules and the
   whole-project pass. *)
type parsed = {
  rel : string;
  lib : bool;
  wallclock_ok : bool;
  suppressions : Suppress.t;
  str : (Parsetree.structure, exn) Result.t;
}

let parse_one ~allowlist ~force_lib ~root rel =
  let text = read_file (Filename.concat root rel) in
  {
    rel;
    lib = force_lib || is_lib rel;
    wallclock_ok = List.mem rel allowlist;
    suppressions = Suppress.parse text;
    str = (try Ok (parse_structure ~path:rel text) with e -> Error e);
  }

let file_findings ~root (p : parsed) =
  let ast_findings =
    match p.str with
    | Ok str ->
        Rules.run { Rules.file = p.rel; lib = p.lib; wallclock_ok = p.wallclock_ok } str
    | Error e ->
        [
          Finding.make ~rule:"E000" ~file:p.rel ~line:1 ~col:0
            ~msg:("parse error: " ^ Printexc.to_string e);
        ]
  in
  let d005 =
    if
      p.lib
      && not (Sys.file_exists (Filename.concat root (Filename.remove_extension p.rel ^ ".mli")))
    then
      [
        Finding.make ~rule:"D005" ~file:p.rel ~line:1 ~col:0
          ~msg:"lib module has no .mli; interfaces pin the surface other layers may rely on";
      ]
    else []
  in
  ast_findings @ d005

(* Back-compat single-file entry point (no interprocedural pass), used by
   the test-suite to probe lib-only rule behaviour. *)
let lint_file ?(force_lib = false) ~root ~rel () =
  let p = parse_one ~allowlist:wallclock_allowlist ~force_lib ~root rel in
  (file_findings ~root p, p.suppressions)

let run ?(dirs = default_dirs) ?(force_lib = false) ?(allowlist = wallclock_allowlist)
    ?(only = []) ~root () =
  let files =
    dirs
    |> List.concat_map (fun d ->
           if Sys.file_exists (Filename.concat root d) then ml_files root d else [])
  in
  let parsed = List.map (parse_one ~allowlist ~force_lib ~root) files in
  let per_file = List.concat_map (fun p -> file_findings ~root p) parsed in
  let interprocedural =
    let inputs =
      List.filter_map
        (fun p ->
          match p.str with
          | Ok str ->
              Some { Callgraph.rel = p.rel; lib = p.lib; wallclock_ok = p.wallclock_ok; str }
          | Error _ -> None)
        parsed
    in
    let g = Callgraph.build inputs in
    Taint.findings g @ Taint.shared_state_findings g @ Escape.findings inputs
    (* The message-flow pass (D014) deliberately runs over ALL scanned
       inputs — bin/bench/stress construct Msg.t values too — unlike the
       lib-scoped hygiene rules D004–D008. *)
    @ Msgflow.findings inputs
  in
  (* [--only D014,D018]: restrict the run to the named rules. *)
  let selected (f : Finding.t) = only = [] || List.mem f.Finding.rule only in
  let suppressions_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun p -> Hashtbl.replace tbl p.rel p.suppressions) parsed;
    fun file -> Option.value ~default:[] (Hashtbl.find_opt tbl file)
  in
  let classify (f : Finding.t) =
    if Suppress.covers (suppressions_of f.Finding.file) ~rule:f.Finding.rule ~line:f.Finding.line
    then (f, Finding.Suppressed)
    else (f, Finding.Open)
  in
  let findings =
    List.map classify (List.filter selected (per_file @ interprocedural))
    |> List.sort (fun (a, _) (b, _) -> Finding.compare a b)
  in
  { findings; files_scanned = List.length files }

let count status t =
  List.length (List.filter (fun (_, s) -> s = status) t.findings)

let open_findings t = List.filter (fun (_, s) -> s = Finding.Open) t.findings

(* The gate: any open finding fails it. *)
let gate_ok t = open_findings t = []

let print_human ppf t =
  List.iter
    (fun (f, status) ->
      match status with
      | Finding.Open -> Format.fprintf ppf "%s@." (Finding.to_string f)
      | Finding.Suppressed -> Format.fprintf ppf "%s [suppressed]@." (Finding.to_string f))
    t.findings;
  Format.fprintf ppf "simlint: %d file(s), %d open, %d suppressed@." t.files_scanned
    (count Finding.Open t) (count Finding.Suppressed t)
