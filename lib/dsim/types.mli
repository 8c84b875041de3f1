(** Shared base types for the simulation substrate.

    The model follows Section 4 of the paper: a finite set of processes
    [0 .. n-1], a discrete global clock whose ticks are natural numbers
    (inaccessible to the processes themselves), crash faults, and the four
    diner phases. *)

type pid = int
(** Process identifier; processes are numbered [0 .. n-1]. *)

type time = int
(** Tick of the conceptual global clock [T]. *)

(** The four basic phases of a dining participant (Section 4, "Dining"). *)
type phase =
  | Thinking
  | Hungry
  | Eating
  | Exiting

val phase_to_string : phase -> string

(** Inverse of {!phase_to_string}; [None] on unknown names. *)
val phase_of_string : string -> phase option
val pp_phase : Format.formatter -> phase -> unit
val phase_equal : phase -> phase -> bool

module Pidset : Set.S with type elt = pid
module Pidmap : Map.S with type key = pid

val pidset_of_list : pid list -> Pidset.t
