(** Minimal JSON value type with a deterministic printer and a strict
    parser.

    The repo deliberately depends only on the baked-in toolchain, so this
    small module stands in for yojson. The printer is canonical — no
    whitespace, object keys in the order given, ["%.12g"] floats — so two
    runs that build the same value produce byte-identical text (the
    determinism contract of the run reports). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact canonical rendering (no whitespace). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for files meant to be read by humans. *)

val of_string : string -> t
(** Strict parser. Raises [Failure] with a position on malformed input.
    Numbers without [.], [e] or [E] parse as [Int]; others as [Float]. *)

val write_file : path:string -> t -> unit
(** Write the {!to_string_pretty} rendering, trailing newline included, to
    [path]. Raises [Sys_error] when the file cannot be written. *)

val read_file : path:string -> t
(** Parse the whole file at [path] with {!of_string}. Raises [Sys_error]
    when it cannot be read and [Failure] when it is not one JSON value. *)

val find : t -> string -> t option
(** [find (Obj _) key] — [None] on missing key or non-object. *)

val get : t -> string -> t
(** Like {!find} but raises [Failure] on a missing key. *)

val str : t -> string
(** Contents of a [Str]; raises [Failure] otherwise. *)

val int : t -> int
(** Contents of an [Int]; raises [Failure] otherwise. *)

val bool : t -> bool
(** Contents of a [Bool]; raises [Failure] otherwise. *)

val arr : t -> t list
(** Contents of an [Arr]; raises [Failure] otherwise. *)
