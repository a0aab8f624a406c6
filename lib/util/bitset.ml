type t = {
  bits : Bytes.t;
  length : int;
  mutable cardinal : int;
}

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { bits = Bytes.make ((n + 7) / 8) '\000'; length = n; cardinal = 0 }

let length t = t.length

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask = 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte lor mask));
    t.cardinal <- t.cardinal + 1
  end

let clear t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask <> 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte land lnot mask));
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let find_first_clear ?(start = 0) t =
  if t.length = 0 then None
  else begin
    let start = ((start mod t.length) + t.length) mod t.length in
    let rec scan i remaining =
      if remaining = 0 then None
      else if not (mem t i) then Some i
      else scan (if i + 1 = t.length then 0 else i + 1) (remaining - 1)
    in
    scan start t.length
  end


(* Whole zero bytes are skipped.  Within a non-zero byte each bit is
   re-read, so [f] may set or clear bits as it goes and the walk sees
   exactly what a bit-by-bit scan would. *)
let iter_set f t =
  for byte = 0 to Bytes.length t.bits - 1 do
    if Bytes.unsafe_get t.bits byte <> '\000' then
      for i = byte lsl 3 to min t.length ((byte + 1) lsl 3) - 1 do
        if mem t i then f i
      done
  done

let fill_all t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\255';
  (* Clear any padding bits past [length] so cardinal stays exact. *)
  for i = t.length to (Bytes.length t.bits * 8) - 1 do
    let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
    Bytes.set t.bits (i lsr 3) (Char.chr (byte land lnot (1 lsl (i land 7))))
  done;
  t.cardinal <- t.length

let clear_all t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.cardinal <- 0

let copy t = { t with bits = Bytes.copy t.bits }

let to_bytes t = Bytes.copy t.bits

let of_bytes ~length b =
  let needed = (length + 7) / 8 in
  if Bytes.length b < needed then invalid_arg "Bitset.of_bytes: short buffer";
  let t = create length in
  Bytes.blit b 0 t.bits 0 needed;
  let card = ref 0 in
  for i = 0 to length - 1 do
    if mem t i then incr card
  done;
  (* Padding bits in the final byte must not count. *)
  for i = length to (needed * 8) - 1 do
    let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
    Bytes.set t.bits (i lsr 3) (Char.chr (byte land lnot (1 lsl (i land 7))))
  done;
  t.cardinal <- !card;
  t
