(* The traced run's recorder. A frame is one timed stay in a layer: the
   benchmark opens it just before it calls into the layer and closes it
   just after, from its own files (wrappers, brackets, builder wrappers).
   Frames nest on a stack, so a layer's self time is its frames' duration
   minus the part covered by frames opened inside them. Frames of layers
   flagged [span] are also kept, in memory, as spans (layer, start, stop,
   parent span, item id, self) and written out when the run ends.

   Once the span log has room, the enter/leave path allocates only the
   clock reading's boxed result; [reads] counts the readings so that
   Layered can subtract them from its allocation counts. The clock is
   Obs.Instrument.now_s, the one sanctioned wall-clock reader; tests
   drive a manual clock instead. *)

type t = {
  names : string array;
  span : bool array;
  self_s : Float.Array.t;
  incl_s : Float.Array.t;
  (* open frames, innermost at [depth - 1] *)
  st_layer : int array;
  st_start : Float.Array.t;
  st_child : Float.Array.t;
  st_span : int array;
  mutable depth : int;
  (* span log *)
  mutable sp_layer : int array;
  mutable sp_parent : int array;
  mutable sp_item : int array;
  mutable sp_start : Float.Array.t;
  mutable sp_stop : Float.Array.t;
  mutable sp_self : Float.Array.t;
  mutable n_spans : int;
  mutable open_span : int;
  mutable item : int;
  mutable reads : int;  (** Clock reads so far. *)
  (* manual clock, for tests *)
  mutable manual : bool;
  mutable manual_now : float;
}

let max_depth = 64

(* Initial span-log capacity; [reserve] grows it before measured work. *)
let capacity = 1024

let create layers =
  let k = Array.length layers in
  {
    names = Array.map fst layers;
    span = Array.map snd layers;
    self_s = Float.Array.make k 0.0;
    incl_s = Float.Array.make k 0.0;
    st_layer = Array.make max_depth 0;
    st_start = Float.Array.make max_depth 0.0;
    st_child = Float.Array.make max_depth 0.0;
    st_span = Array.make max_depth (-1);
    depth = 0;
    sp_layer = Array.make capacity 0;
    sp_parent = Array.make capacity (-1);
    sp_item = Array.make capacity 0;
    sp_start = Float.Array.make capacity 0.0;
    sp_stop = Float.Array.make capacity 0.0;
    sp_self = Float.Array.make capacity 0.0;
    n_spans = 0;
    open_span = -1;
    item = -1;
    reads = 0;
    manual = false;
    manual_now = 0.0;
  }

let set_manual_clock p t =
  p.manual <- true;
  p.manual_now <- t

let now p =
  p.reads <- p.reads + 1;
  if p.manual then p.manual_now else Obs.Instrument.now_s ()

let depth p = p.depth
let reads p = p.reads
let set_item p i = p.item <- i

let grow_spans p =
  let cap = 2 * Array.length p.sp_layer in
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 p.n_spans;
    b
  in
  let growf a =
    let b = Float.Array.make cap 0.0 in
    Float.Array.blit a 0 b 0 p.n_spans;
    b
  in
  p.sp_layer <- grow p.sp_layer 0;
  p.sp_parent <- grow p.sp_parent (-1);
  p.sp_item <- grow p.sp_item 0;
  p.sp_start <- growf p.sp_start;
  p.sp_stop <- growf p.sp_stop;
  p.sp_self <- growf p.sp_self

(* Make room for [k] more spans now, so the log does not grow (and
   allocate) inside a measured frame. *)
let reserve p k =
  while p.n_spans + k > Array.length p.sp_layer do
    grow_spans p
  done

let enter p layer =
  let t = now p in
  let d = p.depth in
  if d = max_depth then failwith "Prof.enter: frames nested too deep";
  p.st_layer.(d) <- layer;
  Float.Array.set p.st_start d t;
  Float.Array.set p.st_child d 0.0;
  if p.span.(layer) then begin
    if p.n_spans = Array.length p.sp_layer then grow_spans p;
    let s = p.n_spans in
    p.n_spans <- s + 1;
    p.sp_layer.(s) <- layer;
    p.sp_parent.(s) <- p.open_span;
    p.sp_item.(s) <- p.item;
    Float.Array.set p.sp_start s t;
    p.st_span.(d) <- s;
    p.open_span <- s
  end
  else p.st_span.(d) <- -1;
  p.depth <- d + 1

let leave p =
  let t = now p in
  let d = p.depth - 1 in
  if d < 0 then failwith "Prof.leave: no open frame";
  p.depth <- d;
  let layer = p.st_layer.(d) in
  let dur = t -. Float.Array.get p.st_start d in
  let self = dur -. Float.Array.get p.st_child d in
  Float.Array.set p.self_s layer (Float.Array.get p.self_s layer +. self);
  Float.Array.set p.incl_s layer (Float.Array.get p.incl_s layer +. dur);
  if d > 0 then Float.Array.set p.st_child (d - 1) (Float.Array.get p.st_child (d - 1) +. dur);
  let s = p.st_span.(d) in
  if s >= 0 then begin
    Float.Array.set p.sp_stop s t;
    Float.Array.set p.sp_self s self;
    p.open_span <- p.sp_parent.(s)
  end

(* Close every frame above [depth]: an exception (the model checker's cut
   of a partial run) skipped their [leave]. *)
let unwind_to p depth =
  while p.depth > depth do
    leave p
  done

let self_s p layer = Float.Array.get p.self_s layer
let incl_s p layer = Float.Array.get p.incl_s layer
let span_count p = p.n_spans

type span = {
  layer : string;
  parent : int;  (** Index of the enclosing span, -1 at the root. *)
  item : int;
  start : float;
  stop : float;
  self : float;
}

let span p i =
  if i < 0 || i >= p.n_spans then invalid_arg "Prof.span";
  {
    layer = p.names.(p.sp_layer.(i));
    parent = p.sp_parent.(i);
    item = p.sp_item.(i);
    start = Float.Array.get p.sp_start i;
    stop = Float.Array.get p.sp_stop i;
    self = Float.Array.get p.sp_self i;
  }

(* One span per line: id, layer, parent id, item id, start and stop
   relative to the first span, self time; seconds throughout. *)
let write_spans p oc =
  output_string oc "id\tlayer\tparent\titem\tstart_s\tstop_s\tself_s\n";
  let t0 = if p.n_spans > 0 then Float.Array.get p.sp_start 0 else 0.0 in
  for i = 0 to p.n_spans - 1 do
    let s = span p i in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.9f\t%.9f\t%.9f\n" i s.layer s.parent s.item
      (s.start -. t0) (s.stop -. t0) s.self
  done
