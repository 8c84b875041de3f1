type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write ~indent ~level b j =
  let nl k =
    match indent with
    | None -> ()
    | Some step ->
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (step * k) ' ')
  in
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> escape_into b s
  | Arr [] -> Buffer.add_string b "[]"
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          nl (level + 1);
          write ~indent ~level:(level + 1) b item)
        items;
      nl level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          nl (level + 1);
          escape_into b k;
          Buffer.add_char b ':';
          if indent <> None then Buffer.add_char b ' ';
          write ~indent ~level:(level + 1) b v)
        fields;
      nl level;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  write ~indent:None ~level:0 b j;
  Buffer.contents b

let to_string_pretty j =
  let b = Buffer.create 256 in
  write ~indent:(Some 2) ~level:0 b j;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

type cursor = { s : string; mutable pos : int }

let fail cur msg = failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg cur.pos)

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None
let peek_is cur c = match peek cur with Some x -> Char.equal x c | None -> false

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let utf8_add b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' ->
        advance cur;
        Buffer.contents b
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> advance cur; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance cur; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance cur; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance cur; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance cur; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance cur; Buffer.add_char b '\t'; go ()
        | Some 'b' -> advance cur; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.s then fail cur "truncated \\u escape";
            let hex = String.sub cur.s cur.pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code ->
                cur.pos <- cur.pos + 4;
                utf8_add b code;
                go ()
            | None -> fail cur "bad \\u escape")
        | _ -> fail cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') ->
        advance cur;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub cur.s start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> fail cur "bad number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek_is cur ']' then begin
        advance cur;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek_is cur '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (kv :: acc)
          | Some '}' ->
              advance cur;
              List.rev (kv :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected %C" c)

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Files *)

let write_file ~path j =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string_pretty j))

let read_file ~path =
  let ic = open_in_bin path in
  of_string
    (Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Accessors *)

let find j key = match j with Obj fields -> List.assoc_opt key fields | _ -> None

let get j key =
  match find j key with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Json.get: missing key %S" key)

let str = function Str s -> s | _ -> failwith "Json.str: not a string"
let int = function Int n -> n | _ -> failwith "Json.int: not an integer"
let bool = function Bool b -> b | _ -> failwith "Json.bool: not a boolean"
let arr = function Arr l -> l | _ -> failwith "Json.arr: not an array"
