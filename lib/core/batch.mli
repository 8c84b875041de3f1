(** Multi-seed sweeps and summary statistics for experiments.

    Finite simulations witness one schedule per seed; the experiment
    harness therefore sweeps seeds and reports aggregates. *)

module Stats : sig
  type t = {
    count : int;
    mean : float;
    stddev : float;
    min_ : float;
    max_ : float;
    median : float;
  }

  val of_floats : float list -> t
  (** Raises [Invalid_argument] on the empty list. *)

  val of_ints : int list -> t
  val pp : Format.formatter -> t -> unit
  val summary : t -> string
  (** ["mean±stddev [min,max]"] with sensible rounding. *)
end

val seeds : ?base:int -> int -> int64 list
(** [seeds n] is [n] distinct deterministic seeds. *)

val sweep : seeds:int64 list -> (seed:int64 -> 'a) -> 'a list
(** Run the experiment body once per seed, collecting results. *)

val count_where : seeds:int64 list -> (seed:int64 -> bool) -> int * int
(** [(hits, total)]. *)
