(* A single rule violation, plus its disposition after in-source
   suppressions have been applied. Everything is plain data so the driver
   can sort, dedupe and serialise without touching the AST again. *)

type status = Open | Suppressed

(* Severities are advisory metadata for reports and SARIF: the gate itself
   fails on ANY open finding regardless of level, so a "note" cannot rot
   silently. *)
type severity = Error | Warning | Note

type t = {
  rule : string;  (** "D001" .. "D018", or "E000" for parse failures *)
  file : string;  (** path relative to the lint root *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler prints them *)
  msg : string;
  severity : severity;
  sym : string option;
      (** Stable symbol-chain key for interprocedural findings (D009, D010,
          D012–D014, D018): the chain's endpoints, e.g.
          "Clock_user.tag->Allowed_clock.stamp:Unix.gettimeofday". Line
          numbers drift under unrelated edits; the endpoints only change
          when the code the finding is about changes, so SARIF
          fingerprints a finding by [sym] when present. *)
}

(* Determinism leaks (including the interprocedural D010) break the replay
   contract outright, and cross-domain escapes (D012) race; an unhandled
   protocol message (D014) is silently dropped, and an underived worker
   PRNG (D018) breaks the pool's determinism contract, so all are errors.
   The hygiene rules flag hazards that need a human judgement call, hence
   warning; D005 is a conventions nudge. *)
let severity_of_rule = function
  | "D001" | "D002" | "D003" | "D009" | "D010" | "D012" | "D014" | "D018" | "E000" -> Error
  | "D004" | "D006" | "D007" | "D008" | "D013" -> Warning
  | _ -> Note

let make ~rule ~file ~line ~col ~msg =
  { rule; file; line; col; msg; severity = severity_of_rule rule; sym = None }

(* Attach the stable symbol key; the interprocedural passes pipe their
   findings through this. *)
let with_sym sym t = { t with sym = Some sym }

let of_location ~rule ~file ~msg (loc : Location.t) =
  let p = loc.Location.loc_start in
  make ~rule ~file ~line:p.Lexing.pos_lnum ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol) ~msg

(* Deterministic report order: by position within a file, then by rule id so
   two findings on one line always print the same way. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let severity_name = function Error -> "error" | Warning -> "warning" | Note -> "note"

let to_string t = Printf.sprintf "%s:%d:%d: %s %s" t.file t.line t.col t.rule t.msg
