open Dsim

(* Compressed sparse rows: [adj.(off.(p) .. off.(p+1)-1)] are the neighbors
   of [p], sorted ascending. Dense int arrays instead of a [Pidset] per
   vertex keep a 10^5..10^6-vertex graph to two flat arrays (O(n + m)
   words, no per-edge tree nodes) and make degree O(1) and neighbor
   iteration a cache-friendly linear scan. Ascending adjacency order
   matches the old [Pidset] iteration order, so every neighbor-order-
   sensitive client (edge-state construction, monitors, POR wake) behaves
   identically. *)
type t = { size : int; off : int array; adj : int array }

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Conflict_graph.of_edges: n must be positive";
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg "Conflict_graph.of_edges: self-loop";
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Conflict_graph.of_edges: endpoint out of range")
    edges;
  (* Encode both directions of each undirected edge as [src * n + dst];
     sorting then groups by source with ascending destinations, and
     adjacent duplicates merge in one pass. *)
  let m2 = 2 * List.length edges in
  let keys = Array.make (max 1 m2) 0 in
  let k = ref 0 in
  List.iter
    (fun (a, b) ->
      keys.(!k) <- (a * n) + b;
      keys.(!k + 1) <- (b * n) + a;
      k := !k + 2)
    edges;
  Array.sort compare keys;
  let off = Array.make (n + 1) 0 in
  let adj = Array.make (max 1 m2) 0 in
  let kept = ref 0 in
  for i = 0 to m2 - 1 do
    if i = 0 || keys.(i) <> keys.(i - 1) then begin
      let src = keys.(i) / n and dst = keys.(i) mod n in
      adj.(!kept) <- dst;
      off.(src + 1) <- off.(src + 1) + 1;
      incr kept
    end
  done;
  for p = 0 to n - 1 do
    off.(p + 1) <- off.(p + 1) + off.(p)
  done;
  { size = n; off; adj = Array.sub adj 0 !kept }

let n t = t.size
let degree t p = t.off.(p + 1) - t.off.(p)
let neighbor t p i = t.adj.(t.off.(p) + i)

let iter_neighbors t p f =
  for i = t.off.(p) to t.off.(p + 1) - 1 do
    f t.adj.(i)
  done

let neighbor_list t p =
  let acc = ref [] in
  for i = t.off.(p + 1) - 1 downto t.off.(p) do
    acc := t.adj.(i) :: !acc
  done;
  !acc

let are_neighbors t p q =
  (* Binary search in the sorted adjacency row of [p]. *)
  let lo = ref t.off.(p) and hi = ref (t.off.(p + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.adj.(mid) in
    if v = q then found := true else if v < q then lo := mid + 1 else hi := mid - 1
  done;
  !found

let edges t =
  (* Rows ascend and each row is sorted, so emitting (p, q) with p < q in
     scan order yields the sorted (min, max) list directly. *)
  let acc = ref [] in
  for p = t.size - 1 downto 0 do
    for i = t.off.(p + 1) - 1 downto t.off.(p) do
      let q = t.adj.(i) in
      if p < q then acc := (p, q) :: !acc
    done
  done;
  !acc

let max_degree t =
  let best = ref 0 in
  for p = 0 to t.size - 1 do
    best := max !best (degree t p)
  done;
  !best

let empty ~n = of_edges ~n []

let pair () = of_edges ~n:2 [ (0, 1) ]

let ring ~n =
  if n < 3 then invalid_arg "Conflict_graph.ring: need n >= 3";
  of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let clique ~n =
  let acc = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      acc := (a, b) :: !acc
    done
  done;
  of_edges ~n !acc

let star ~n =
  if n < 2 then invalid_arg "Conflict_graph.star: need n >= 2";
  of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let path ~n =
  if n < 2 then invalid_arg "Conflict_graph.path: need n >= 2";
  of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Conflict_graph.grid: bad dimensions";
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (id r c, id r (c + 1)) :: !acc;
      if r + 1 < rows then acc := (id r c, id (r + 1) c) :: !acc
    done
  done;
  of_edges ~n:(rows * cols) !acc

let random ~n ~p ~rng =
  let acc = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Prng.chance rng ~p then acc := (a, b) :: !acc
    done
  done;
  of_edges ~n !acc

let distance t a b =
  if a = b then Some 0
  else begin
    let dist = Array.make t.size (-1) in
    dist.(a) <- 0;
    let queue = Queue.create () in
    Queue.add a queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      for i = t.off.(u) to t.off.(u + 1) - 1 do
        let v = t.adj.(i) in
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          if v = b then found := Some dist.(v) else Queue.add v queue
        end
      done
    done;
    !found
  end
