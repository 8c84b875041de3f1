open Dsim

type t = {
  leader : unit -> Types.pid;
  component : Component.t;
}

let create (ctx : Context.t) ~members ~suspects () =
  let members = List.sort_uniq compare members in
  if members = [] then invalid_arg "Leader.create: no members";
  let current () =
    let s = suspects () in
    match List.find_opt (fun p -> not (Types.Pidset.mem p s)) members with
    | Some p -> p
    | None -> List.hd members (* everyone suspected: fall back deterministically *)
  in
  let last = ref (-1) in
  let watch =
    Component.action "leader-watch"
      ~guard:(fun () -> current () <> !last)
      ~body:(fun () ->
        last := current ();
        ctx.Context.log
          (Trace.Note
             { pid = ctx.Context.self; label = "leader"; info = string_of_int !last }))
  in
  { leader = current; component = Component.make ~name:"leader" ~actions:[ watch ] () }

let changes trace ~pid =
  Trace.notes ~pid ~label:"leader" trace
  |> List.filter_map (fun (e : Trace.entry) ->
         match e.ev with
         | Trace.Note n -> Some (e.at, int_of_string n.info)
         | _ -> None)

let stabilisation_time trace ~pid =
  match List.rev (changes trace ~pid) with [] -> None | (t, _) :: _ -> Some t
