type 'a t = { mutable buf : 'a array; mutable len : int }

let create () = { buf = [||]; len = 0 }

let length t = t.len

let add_last t x =
  if t.len = Array.length t.buf then begin
    let cap = max 8 (2 * t.len) in
    let bigger = Array.make cap x in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.buf.(i)

let set t i x =
  check t i;
  t.buf.(i) <- x

let remove_last t =
  if t.len = 0 then invalid_arg "Vec.remove_last: empty";
  t.len <- t.len - 1

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.buf.(i) :: !acc
  done;
  !acc
