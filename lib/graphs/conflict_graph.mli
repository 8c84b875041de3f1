(** Undirected conflict graphs for dining instances.

    A dining instance is modelled by an undirected conflict graph
    [DP = (Pi, E)] (Section 4): vertices are diners, and an edge [(p, q)]
    represents the set of shared resources contended for by neighbors [p]
    and [q].

    The representation is compressed sparse rows over dense int arrays, so
    graphs with 10^5..10^6 vertices cost O(n + m) words; [degree] is O(1),
    [are_neighbors] O(log degree), and neighbor iteration a linear scan in
    ascending pid order (the same order the previous set-based
    representation iterated in). *)

type t

val of_edges : n:int -> (Dsim.Types.pid * Dsim.Types.pid) list -> t
(** [of_edges ~n edges] builds a graph over pids [0 .. n-1]. Self-loops and
    out-of-range endpoints are rejected; duplicate edges are merged. *)

val n : t -> int

val neighbor_list : t -> Dsim.Types.pid -> Dsim.Types.pid list
(** Neighbors of [p] in ascending order — for edge-state construction at
    registration time. Allocates; per-packet / per-tick code should use
    {!iter_neighbors}. *)

val iter_neighbors : t -> Dsim.Types.pid -> (Dsim.Types.pid -> unit) -> unit
(** [iter_neighbors t p f] applies [f] to each neighbor of [p] in ascending
    order, without allocating. *)

val are_neighbors : t -> Dsim.Types.pid -> Dsim.Types.pid -> bool

val edges : t -> (Dsim.Types.pid * Dsim.Types.pid) list
(** Each undirected edge once, as [(min, max)] pairs, sorted. *)

val degree : t -> Dsim.Types.pid -> int

val neighbor : t -> Dsim.Types.pid -> int -> Dsim.Types.pid
(** [neighbor t p i] is the [i]-th neighbor of [p] in ascending order,
    [0 <= i < degree t p]. *)

val max_degree : t -> int

val distance : t -> Dsim.Types.pid -> Dsim.Types.pid -> int option
(** Length of a shortest path between two vertices ([None] if
    disconnected; [Some 0] for a vertex and itself). *)

(** {1 Generators} *)

val empty : n:int -> t

val pair : unit -> t
(** Two diners, one edge — the shape of every DX_i in the reduction. *)

val ring : n:int -> t
val clique : n:int -> t

val star : n:int -> t
(** Vertex 0 is the hub. *)

val path : n:int -> t
val grid : rows:int -> cols:int -> t

val random : n:int -> p:float -> rng:Dsim.Prng.t -> t
(** Erdos–Renyi G(n, p). Draws one [chance] per vertex pair — O(n^2) PRNG
    draws, fine up to a few thousand vertices. *)
