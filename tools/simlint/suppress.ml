(* Per-site suppressions.

   A comment of the form

     (* simlint: allow D003 — reason *)

   on the line immediately before a finding (or on the finding's own line,
   for one-liners) silences exactly the named rules at that site. Several ids
   may be listed: [simlint: allow D001 D003 — ...]. The reason text is free
   form and ignored by the parser; reviewers enforce that it exists.

   Suppressions are recovered from the raw source text rather than the AST
   because the compiler's parser drops comments. *)

type t = (int * string) list (* (line, rule id), one entry per id *)

let is_rule_id w =
  String.length w = 4
  && w.[0] = 'D'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub w 1 3)

(* Split on anything that cannot be part of a rule id, so "D001," and
   "D001." parse the same as "D001". *)
let words s =
  let out = ref [] and buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      if (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') then
        Buffer.add_char buf c
      else flush ())
    s;
  flush ();
  List.rev !out

let marker = "simlint:"

(* Cheap containment scan for [marker] in [line]. *)
let find_marker line =
  let rec find i =
    if i + String.length marker > String.length line then None
    else if String.sub line i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  find 0

let rules_of_line line =
  match String.index_opt line 's' with
  | None -> []
  | Some _ -> (
      match find_marker line with
      | None -> []
      | Some i -> (
          let rest = String.sub line (i + String.length marker) (String.length line - i - String.length marker) in
          match words rest with
          | "allow" :: ws ->
              (* Take the leading run of rule ids; the reason follows. *)
              let rec take = function
                | w :: tl when is_rule_id w -> w :: take tl
                | _ -> []
              in
              take ws
          | _ -> []))

let parse text : t =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line -> List.map (fun r -> (i + 1, r)) (rules_of_line line))
       lines)

(* A suppression on line L covers findings on L and L+1. *)
let covers (t : t) ~rule ~line =
  List.exists (fun (l, r) -> r = rule && (l = line || l = line - 1)) t
