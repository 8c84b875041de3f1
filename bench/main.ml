(* Experiment and benchmark harness.

     dune exec bench/main.exe                  # every experiment + micro benches
     dune exec bench/main.exe -- t1 v1         # selected experiments
     dune exec bench/main.exe -- --trials 5    # median of 5 timings

   One entry per artifact of the paper; see the per-experiment index in
   DESIGN.md and the measured-vs-paper discussion in EXPERIMENTS.md.

   Every invocation also writes BENCH_dining.json at the current
   directory (the repo root under `dune exec`): one wall-clock entry per
   experiment run, schema "dinersim-bench/1". This file is the perf
   trajectory anchor — successive PRs append comparable snapshots.

   --trials T re-runs every experiment T times, one after another, and
   records the median wall time (first trial prints normally; re-runs go
   to /dev/null). Trials never overlap, so no timing shares the machine
   with another trial. The bench file is wall-clock trajectory data,
   never canonical — the trial count is recorded in it so snapshots are
   comparable. *)

let registry =
  [
    ("f1", "Figure 1: witness/subject hand-off timeline", Experiments.f1);
    ("t1", "Theorem 1: strong completeness", Experiments.t1);
    ("t2", "Theorem 2: eventual strong accuracy", Experiments.t2);
    ("lemmas", "Lemmas 1-12 as run-time checks", Experiments.lemmas);
    ("v1", "Section 3: flawed [8] construction vs ours", Experiments.v1);
    ("s9", "Section 9: extracting T from perpetual WX", Experiments.s9);
    ("k1", "Section 8: eventual 2-fairness composition", Experiments.k1);
    ("a1", "Section 2: WSN duty-cycle scheduling", Experiments.a1);
    ("a2", "Sections 2-3: contention-manager boost", Experiments.a2);
    ("fl", "Section 2 trade-off: exclusion vs liveness vs oracle", Experiments.fl);
    ("c1", "intro claim: extracted ◇P solves consensus", Experiments.c1);
    ("sweep", "multi-seed statistical sweep of the theorems", Experiments.sweep);
    ("m1", "engineering: message cost", Experiments.m1);
    ("scale2", "engine scaling curve: n = 10^2 ring", Experiments.scale2);
    ("scale3", "engine scaling curve: n = 10^3 ring", Experiments.scale3);
    ("scale4", "engine scaling curve: n = 10^4 ring", Experiments.scale4);
    ("scale5", "engine scaling curve: n = 10^5 ring", Experiments.scale5);
    ("micro", "Bechamel micro-benchmarks", Micro.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--trials T] [--out FILE] [experiment ...]\n\
     available experiments:";
  List.iter (fun (key, doc, _) -> Printf.printf "  %-8s %s\n" key doc) registry;
  print_endline "  all      run everything (default)"

let default_bench_path = "BENCH_dining.json"

let time_run f =
  (* The harness measures real elapsed time; wall times are reporting only
     and never feed back into simulated behaviour. *)
  (* simlint: allow D001 — wall-clock benchmark timing *)
  let t0 = Unix.gettimeofday () in
  f ();
  (* simlint: allow D001 — wall-clock benchmark timing *)
  Unix.gettimeofday () -. t0

(* Re-run trials repeat the experiments for timing only; their narrative
   output duplicates the first trial's, so fd 1 points at /dev/null for
   the duration. *)
let with_quiet_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let write_bench ~out ~trials entries =
  let j =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "dinersim-bench/1");
        ("suite", Obs.Json.Str "dining");
        ("trials", Obs.Json.Int trials);
        ("experiments", Obs.Json.Arr entries);
      ]
  in
  Obs.Json.write_file ~path:out j;
  Printf.printf "\nbench report written to %s\n" out

(* Bechamel stabilizes the major heap before sampling and is already a
   statistical harness of its own, so "micro" gets exactly one wall
   sample. *)
let retrials_p (key, _, _) = key <> "micro"

let run_selected ~out ~trials entries =
  (* Trial 0 runs with normal output — the experiment text is part of
     the harness's human contract; the extra trials are timing-only. *)
  let first = List.map (fun (_, _, f) -> time_run f) entries in
  let extra =
    with_quiet_stdout (fun () ->
        List.map
          (fun ((_, _, f) as e) ->
            if retrials_p e then List.init (trials - 1) (fun _ -> time_run f) else [])
          entries)
  in
  let json =
    List.map2
      (fun (key, doc, _) walls ->
        Obs.Json.Obj
          [
            ("key", Obs.Json.Str key);
            ("doc", Obs.Json.Str doc);
            ("wall_s", Obs.Json.Float (Core.Batch.Stats.of_floats walls).Core.Batch.Stats.median);
            ("walls_s", Obs.Json.Arr (List.map (fun w -> Obs.Json.Float w) walls));
          ])
      entries
      (List.map2 (fun w ws -> w :: ws) first extra)
  in
  write_bench ~out ~trials json

let () =
  let or_die = function
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let trials, args =
    or_die (Core.Cmdline.extract_int_flag ~names:[ "--trials" ] ~default:1 args)
  in
  (* --out keeps partial-suite runs (e.g. `make bench-scale`) from
     clobbering the committed full-suite snapshot the perf gate diffs
     against. *)
  let out, keys =
    or_die (Core.Cmdline.extract_string_flag ~names:[ "--out" ] ~default:default_bench_path args)
  in
  if trials < 1 then begin
    Printf.eprintf "bench: --trials must be at least 1\n";
    exit 2
  end;
  match keys with
  | [] | [ "all" ] -> run_selected ~out ~trials registry
  | keys ->
      let unknown = List.filter (fun k -> not (List.exists (fun (key, _, _) -> key = k) registry)) keys in
      if unknown <> [] || List.mem "--help" keys || List.mem "help" keys then usage ()
      else
        run_selected ~out ~trials
          (List.map (fun k -> List.find (fun (key, _, _) -> key = k) registry) keys)
