exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let put_u8 buf off v =
  if v < 0 || v > 0xFF then error "Codec.u8: %d out of range" v;
  Bytes.set_uint8 buf off v;
  off + 1

let put_u16 buf off v =
  if v < 0 || v > 0xFFFF then error "Codec.u16: %d out of range" v;
  Bytes.set_uint16_le buf off v;
  off + 2

let put_u32 buf off v =
  if v < 0 || v > 0xFFFFFFFF then error "Codec.u32: %d out of range" v;
  Bytes.set_int32_le buf off (Int32.of_int v);
  off + 4

let put_int_as_i64 buf off v =
  Bytes.set_int64_le buf off (Int64.of_int v);
  off + 8

let get_u32 buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF

type encoder = { mutable buf : Bytes.t; mutable pos : int }

let encoder ?(capacity = 256) () = { buf = Bytes.create capacity; pos = 0 }

let ensure e n =
  let needed = e.pos + n in
  if needed > Bytes.length e.buf then begin
    let cap = max needed (2 * Bytes.length e.buf) in
    let buf = Bytes.create cap in
    Bytes.blit e.buf 0 buf 0 e.pos;
    e.buf <- buf
  end

let u8 e v =
  ensure e 1;
  e.pos <- put_u8 e.buf e.pos v

let u16 e v =
  ensure e 2;
  e.pos <- put_u16 e.buf e.pos v

let u32 e v =
  ensure e 4;
  e.pos <- put_u32 e.buf e.pos v

let i64 e v =
  ensure e 8;
  Bytes.set_int64_le e.buf e.pos v;
  e.pos <- e.pos + 8

let int_as_i64 e v = i64 e (Int64.of_int v)
let bool e b = u8 e (if b then 1 else 0)

let bytes e b =
  ensure e (Bytes.length b);
  Bytes.blit b 0 e.buf e.pos (Bytes.length b);
  e.pos <- e.pos + Bytes.length b

let string_u16 e s =
  if String.length s > 0xFFFF then error "Codec.string_u16: too long";
  u16 e (String.length s);
  bytes e (Bytes.unsafe_of_string s)

let pos e = e.pos

let pad_to e n =
  if e.pos > n then error "Codec.pad_to: already past %d (at %d)" n e.pos;
  ensure e (n - e.pos);
  Bytes.fill e.buf e.pos (n - e.pos) '\000';
  e.pos <- n

let to_bytes e = Bytes.sub e.buf 0 e.pos

type decoder = { data : Bytes.t; limit : int; mutable dpos : int }

let decoder ?(off = 0) ?len data =
  let len = match len with Some l -> l | None -> Bytes.length data - off in
  if off < 0 || len < 0 || off + len > Bytes.length data then
    error "Codec.decoder: bad bounds";
  { data; limit = off + len; dpos = off }

let need d n = if d.dpos + n > d.limit then error "Codec: truncated input"

let read_u8 d =
  need d 1;
  let v = Bytes.get_uint8 d.data d.dpos in
  d.dpos <- d.dpos + 1;
  v

let read_u16 d =
  need d 2;
  let v = Bytes.get_uint16_le d.data d.dpos in
  d.dpos <- d.dpos + 2;
  v

let read_u32 d =
  need d 4;
  let v = get_u32 d.data d.dpos in
  d.dpos <- d.dpos + 4;
  v

let read_i64 d =
  need d 8;
  let v = Bytes.get_int64_le d.data d.dpos in
  d.dpos <- d.dpos + 8;
  v

let read_int_as_i64 d = Int64.to_int (read_i64 d)
let read_bool d = read_u8 d <> 0

let read_bytes d n =
  need d n;
  let b = Bytes.sub d.data d.dpos n in
  d.dpos <- d.dpos + n;
  b

let read_string_u16 d =
  let n = read_u16 d in
  Bytes.unsafe_to_string (read_bytes d n)

let remaining d = d.limit - d.dpos

let skip d n =
  need d n;
  d.dpos <- d.dpos + n
