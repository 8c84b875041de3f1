(* The benchmark program. Usage:

     main.exe --workload fuzz|mc|ring|extract --seed N --seconds S --trace 0|1

   With --trace 0 it repeats the workload's fixed work, untraced, for S
   seconds (at least once; no rep starts that would end later, judged by
   the longest rep so far) and reports the end-to-end metrics. With
   --trace 1 it repeats (untraced rep, traced rep) pairs instead and
   reports the per-layer metrics, and writes the first traced rep's
   spans to perfbench/_out/spans-<workload>.tsv. Either way it checks
   every rep's outputs, prints one line per metric, and ends with a JSON
   result line; it exits 1 when a check fails. *)

open Perfbench
open Suite

let write_spans name (tr : Layered.t) =
  let dir = Filename.concat "perfbench" "_out" in
  let path = Filename.concat dir ("spans-" ^ name ^ ".tsv") in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out path in
    Prof.write_spans tr.Layered.prof oc;
    close_out oc;
    Printf.printf "  %d spans written to %s\n" (Prof.span_count tr.Layered.prof) path
  with Sys_error e -> Printf.printf "  spans not written: %s\n" e

(* ------------------------------------------------------------------ *)

type result = {
  metrics : metric list;
  extra : metric list;  (** Printed, not in the JSON line. *)
  attempted : int;
  failed : int;
  problems : string list;
  outputs : (string * string) list;
  walls : float list;
  setups : float list;
}

(* Run [once] at least once, then again while another run as long as
   the longest so far still ends within [seconds] of the start. *)
let repeat ~seconds once =
  let start = Obs.Instrument.now_s () in
  let first = once () in
  let longest = ref (Obs.Instrument.now_s () -. start) in
  let rest = ref [] in
  while Obs.Instrument.now_s () -. start +. !longest <= seconds do
    let t0 = Obs.Instrument.now_s () in
    rest := once () :: !rest;
    longest := Float.max !longest (Obs.Instrument.now_s () -. t0)
  done;
  first :: List.rev !rest

let output_problems name ~seed (reps : Workloads.rep list) =
  let first = List.hd reps in
  mismatches ~expected:(expected name ~seed) first.Workloads.outputs
  @ List.concat_map
      (fun (r : Workloads.rep) ->
        mismatches ~expected:first.Workloads.outputs r.Workloads.outputs
        |> List.map (fun m -> "rep differs from the first: " ^ m))
      (List.tl reps)

let run_plain name ~seed ~seconds =
  let reps = repeat ~seconds (fun () -> plain name ~seed) in
  let problems = output_problems name ~seed reps in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  {
    metrics = end_to_end reps ~failed_checks:(List.length problems);
    extra = averages reps;
    attempted = sum (fun r -> r.Workloads.attempted);
    failed = sum (fun r -> r.Workloads.failed) + List.length problems;
    problems;
    outputs = (List.hd reps).Workloads.outputs;
    walls = List.map (fun r -> r.Workloads.wall_s) reps;
    setups = List.map (fun r -> r.Workloads.setup_s) reps;
  }

(* Each pair's recorder is reduced to its metrics at once, so only the
   first one, whose spans are written out, stays in memory. *)
let run_traced name ~seed ~seconds =
  let first = ref None in
  let pairs =
    repeat ~seconds (fun () ->
        let pr = traced_pair name ~seed in
        if !first = None then first := Some pr.tr;
        (per_layer pr, pr.p_plain, pr.p_traced))
  in
  Option.iter (write_spans name) !first;
  let plains = List.map (fun (_, plain, _) -> plain) pairs in
  let fidelity =
    List.concat_map
      (fun (_, (plain : Workloads.rep), (traced : Workloads.trep)) ->
        traced.Workloads.fidelity
        @ (mismatches ~expected:plain.Workloads.outputs traced.Workloads.t_outputs
          |> List.map (fun m -> "traced rep differs from the untraced one: " ^ m)))
      pairs
  in
  let problems = output_problems name ~seed plains @ fidelity in
  let sum f = List.fold_left (fun a r -> a + f r) 0 plains in
  {
    metrics = pair_metrics (List.map (fun (m, _, _) -> m) pairs);
    extra = [];
    attempted = sum (fun r -> r.Workloads.attempted);
    failed = sum (fun r -> r.Workloads.failed) + List.length problems;
    problems;
    outputs = (List.hd plains).Workloads.outputs;
    walls = List.map (fun (_, _, t) -> t.Workloads.t_wall_s) pairs;
    setups = [];
  }

let print_result name ~trace r =
  Printf.printf "workload %s (%s)\n" name (if trace then "traced" else "untraced");
  Printf.printf "  rep wall_s %s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") r.walls));
  if r.setups <> [] then
    Printf.printf "  rep setup_ms %s\n"
      (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (1000.0 *. s)) r.setups));
  List.iter (fun (k, v) -> Printf.printf "  output %-24s %s\n" k v) r.outputs;
  let line m = Printf.printf "  %-38s %18.6f %-12s %s\n" m.name m.value m.unit_ m.note in
  List.iter line r.metrics;
  if r.extra <> [] then begin
    Printf.printf "  averages, not gated:\n";
    List.iter line r.extra
  end;
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) r.problems

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun r ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.name (json_number r.value) r.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)

(* Any decimal integer names a seed; its magnitude is taken modulo 2^61
   so that seeds too large for an int still name one instance. *)
let parse_seed s =
  let digits =
    match s.[0] with
    | '-' | '+' -> String.sub s 1 (String.length s - 1)
    | _ -> s
    | exception Invalid_argument _ -> s
  in
  if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then
    failwith "seed";
  String.fold_left (fun acc c -> ((acc * 10) + Char.code c - 48) land (max_int lsr 1)) 0 digits

let usage () =
  prerr_endline
    "usage: main.exe --workload fuzz|mc|ring|extract --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := parse_seed s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := int_of_string t;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let r = (if trace then run_traced else run_plain) !workload ~seed:!seed ~seconds:!seconds in
  print_result !workload ~trace r;
  let correct = r.problems = [] in
  print_endline (json_result ~correct ~attempted:r.attempted ~failed:r.failed r.metrics);
  if not correct then exit 1
