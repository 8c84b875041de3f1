open Dsim

let schema_version = "fuzz-repro/1"

type t = {
  config : Config.t;
  len : int;
  overrides : (int * Adversary.decision) list;
  checks : Obs.Report.check list;
}

let v ~config ~len ~overrides ~checks =
  { config; len; overrides = List.sort compare overrides; checks }

(* Decisions are encoded as small integers: 0 = step withheld, 1 = step
   offered, d+1 = delivery delay d (delays are >= 1, so codes >= 2 are
   unambiguous). *)
let encode_decision = function
  | Adversary.Step false -> 0
  | Adversary.Step true -> 1
  | Adversary.Delay d ->
      if d < 1 then invalid_arg "Repro: delay < 1" else d + 1

let decode_decision = function
  | 0 -> Adversary.Step false
  | 1 -> Adversary.Step true
  | e when e >= 2 -> Adversary.Delay (e - 1)
  | e -> failwith (Printf.sprintf "Repro: bad decision code %d" e)

let body_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema_version);
      ("config", Config.to_json r.config);
      ( "decisions",
        Obs.Json.Obj
          [
            ("len", Obs.Json.Int r.len);
            ( "overrides",
              Obs.Json.Arr
                (List.map
                   (fun (i, d) ->
                     Obs.Json.Arr [ Obs.Json.Int i; Obs.Json.Int (encode_decision d) ])
                   r.overrides) );
          ] );
      ("checks", Obs.Json.Arr (List.map Obs.Report.check_to_json r.checks));
    ]

let digest r = Digest.to_hex (Digest.string (Obs.Json.to_string (body_json r)))

let to_json r =
  match body_json r with
  | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("digest", Obs.Json.Str (digest r)) ])
  | _ -> assert false

let of_json j =
  (match Obs.Json.find j "schema" with
  | Some (Obs.Json.Str s) when s = schema_version -> ()
  | Some (Obs.Json.Str s) -> failwith (Printf.sprintf "Repro.of_json: unknown schema %S" s)
  | _ -> failwith "Repro.of_json: missing schema tag");
  let config = Config.of_json (Obs.Json.get j "config") in
  let d = Obs.Json.get j "decisions" in
  let len = Obs.Json.int (Obs.Json.get d "len") in
  let overrides =
    List.map
      (fun e ->
        match Obs.Json.arr e with
        | [ i; v ] -> (Obs.Json.int i, decode_decision (Obs.Json.int v))
        | _ -> failwith "Repro.of_json: bad override entry")
      (Obs.Json.arr (Obs.Json.get d "overrides"))
  in
  let checks = List.map Obs.Report.check_of_json (Obs.Json.arr (Obs.Json.get j "checks")) in
  let r = v ~config ~len ~overrides ~checks in
  (match Obs.Json.find j "digest" with
  | Some (Obs.Json.Str d) when d = digest r -> ()
  | Some (Obs.Json.Str d) ->
      failwith
        (Printf.sprintf "Repro.of_json: digest mismatch (recorded %s, computed %s)" d (digest r))
  | _ -> failwith "Repro.of_json: missing digest");
  r

let save ~path r = Obs.Json.write_file ~path (to_json r)
let load ~path = of_json (Obs.Json.read_file ~path)

let replay ~registry r =
  let drive = Adversary.replayer ~len:r.len ~overrides:r.overrides in
  let outcome = Runner.run ~drive ~registry r.config in
  let expected =
    List.map (fun (c : Obs.Report.check) -> (c.Obs.Report.name, c.Obs.Report.holds)) r.checks
  in
  let got =
    List.map
      (fun (c : Obs.Report.check) -> (c.Obs.Report.name, c.Obs.Report.holds))
      outcome.Runner.checks
  in
  if expected = got then Ok outcome
  else
    Error
      (List.filter_map
         (fun (name, holds) ->
           match List.assoc_opt name got with
           | Some g when g = holds -> None
           | Some g -> Some (Printf.sprintf "%s: recorded %b, replayed %b" name holds g)
           | None -> Some (Printf.sprintf "%s: missing from replay" name))
         expected
      @ List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name expected then None
            else Some (Printf.sprintf "%s: unexpected in replay" name))
          got)
