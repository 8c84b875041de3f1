type pid = int
type time = int

type phase =
  | Thinking
  | Hungry
  | Eating
  | Exiting

let phase_to_string = function
  | Thinking -> "thinking"
  | Hungry -> "hungry"
  | Eating -> "eating"
  | Exiting -> "exiting"

let phase_of_string = function
  | "thinking" -> Some Thinking
  | "hungry" -> Some Hungry
  | "eating" -> Some Eating
  | "exiting" -> Some Exiting
  | _ -> None

let pp_phase fmt p = Format.pp_print_string fmt (phase_to_string p)

let phase_equal (a : phase) (b : phase) = a = b

module Pidset = Set.Make (Int)
module Pidmap = Map.Make (Int)

let pidset_of_list l = Pidset.of_list l
