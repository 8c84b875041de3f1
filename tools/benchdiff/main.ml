(* benchdiff — compare two dinersim-bench/1 snapshots and gate on
   relative slowdown.

     dune exec tools/benchdiff/main.exe -- BASELINE CANDIDATE \
         [--threshold X] [--min-base-s S] [--json PATH]

   Exit 0 when every shared experiment is within threshold, 1 on a
   regression (or a baseline experiment missing from the candidate), 2 on
   malformed input. `make bench-diff` wires this against the committed
   BENCH_dining.json and a fresh bench-smoke run. *)

let usage () =
  prerr_endline
    "usage: main.exe BASELINE CANDIDATE [--threshold X] [--min-base-s S] [--json PATH]";
  exit 2

let () =
  let or_die = function
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "benchdiff: %s\n" msg;
        exit 2
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let threshold, args =
    or_die (Core.Cmdline.extract_float_flag ~names:[ "--threshold" ] ~default:1.5 args)
  in
  let min_base_s, args =
    or_die (Core.Cmdline.extract_float_flag ~names:[ "--min-base-s" ] ~default:0.02 args)
  in
  (* --json is string-valued; reuse the generic extractor via a sentinel
     default ("" = not requested). *)
  let json_out, args =
    let rec go acc v = function
      | [] -> (v, List.rev acc)
      | "--json" :: path :: rest -> go acc (Some path) rest
      | [ "--json" ] ->
          Printf.eprintf "benchdiff: --json expects a value\n";
          exit 2
      | a :: rest -> go (a :: acc) v rest
    in
    go [] None args
  in
  let baseline, candidate =
    match args with [ b; c ] -> (b, c) | _ -> usage ()
  in
  let d =
    match Benchdiff.Diff.of_files ~threshold ~min_base_s ~baseline ~candidate with
    | d -> d
    | exception (Failure msg | Invalid_argument msg) ->
        Printf.eprintf "benchdiff: %s\n" msg;
        exit 2
    | exception Sys_error msg ->
        Printf.eprintf "benchdiff: %s\n" msg;
        exit 2
  in
  Format.printf "%a" Benchdiff.Diff.pp d;
  (match json_out with
  | Some path ->
      (try Obs.Json.write_file ~path (Benchdiff.Diff.to_json d)
       with Sys_error msg ->
         Printf.eprintf "benchdiff: %s\n" msg;
         exit 2);
      Printf.printf "diff written to %s\n" path
  | None -> ());
  if not (Benchdiff.Diff.ok d) then exit 1
