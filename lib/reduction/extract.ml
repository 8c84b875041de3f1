open Dsim

type t = {
  detector_name : string;
  members : Types.pid list;
  pairs : Pair.t list;
}

let create ~engine ?(detector_name = "extracted") ~dining ~members () =
  let members = List.sort_uniq compare members in
  let pairs =
    List.concat_map
      (fun watcher ->
        List.filter_map
          (fun subject ->
            if watcher = subject then None
            else Some (Pair.create ~engine ~detector_name ~dining ~watcher ~subject ()))
          members)
      members
  in
  { detector_name; members; pairs }

let pair t ~watcher ~subject =
  match
    List.find_opt (fun p -> p.Pair.watcher = watcher && p.Pair.subject = subject) t.pairs
  with
  | Some p -> p
  | None -> raise Not_found

(* A query updates the set it returned last only where a pair's flag
   disagrees with it, so a guard that polls an unchanged oracle
   allocates nothing. A watcher has one pair per subject. *)
let oracle t owner =
  let mine = List.filter (fun p -> p.Pair.watcher = owner) t.pairs in
  let last = ref Types.Pidset.empty in
  let update (p : Pair.t) =
    let s = p.suspected () in
    if s <> Types.Pidset.mem p.subject !last then
      last := if s then Types.Pidset.add p.subject !last else Types.Pidset.remove p.subject !last
  in
  Detectors.Oracle.make ~name:t.detector_name ~owner ~suspects:(fun () ->
      List.iter update mine;
      !last)
