(* Per-tick-window event series: a fixed window width in ticks and one
   counter per window, growing with the horizon. The canonical use is
   throughput-over-time (meals per 1000-tick window); everything is
   driven by simulation timestamps, so the series is deterministic in
   the seed. *)

type t = {
  width : int;
  mutable counts : int array;
  mutable len : int; (* number of windows in use: 1 + highest bucket touched *)
  mutable total : int;
}

let create ~width =
  if width <= 0 then invalid_arg "Window.create: width must be positive";
  { width; counts = Array.make 16 0; len = 0; total = 0 }

let width t = t.width
let total t = t.total

(* The first doubling of [cap] that exceeds bucket [b]. *)
let rec doubled cap b = if b < cap then cap else doubled (2 * cap) b

let observe ?(by = 1) t ~at =
  if at < 0 then invalid_arg "Window.observe: negative timestamp";
  let b = at / t.width in
  if b >= Array.length t.counts then begin
    let bigger = Array.make (doubled (2 * Array.length t.counts) b) 0 in
    Array.blit t.counts 0 bigger 0 t.len;
    t.counts <- bigger
  end;
  t.counts.(b) <- t.counts.(b) + by;
  if b + 1 > t.len then t.len <- b + 1;
  t.total <- t.total + by

let counts t = Array.sub t.counts 0 t.len

let peak t =
  let m = ref 0 in
  for i = 0 to t.len - 1 do
    if t.counts.(i) > !m then m := t.counts.(i)
  done;
  !m

let merge ~into src =
  if into.width <> src.width then
    invalid_arg
      (Printf.sprintf "Window.merge: window widths differ (%d vs %d)" into.width src.width);
  for b = 0 to src.len - 1 do
    if src.counts.(b) <> 0 then observe ~by:src.counts.(b) into ~at:(b * src.width)
  done

let to_json t =
  Json.Obj
    [
      ("width", Json.Int t.width);
      ("total", Json.Int t.total);
      ("peak", Json.Int (peak t));
      ("counts", Json.Arr (List.init t.len (fun i -> Json.Int t.counts.(i))));
    ]
