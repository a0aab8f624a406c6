(* Slicing-by-8: [tables] holds eight 256-entry tables, table [k] at
   offset [k * 256].  Table 0 is the classic byte-at-a-time table; table
   [k] advances a byte through [k] further zero bytes, so one step folds
   eight input bytes with eight independent lookups.  Values are
   unsigned 32-bit quantities held in native ints. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let digest_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes";
  (* Every index below is in [off, off + len) and every table index is
     below 8 * 256, so the unchecked accesses are safe. *)
  let t i = Array.unsafe_get tables i in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let crc = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let p = !i and c = !crc in
    crc :=
      t (0x700 + ((c lxor byte p) land 0xFF))
      lxor t (0x600 + (((c lsr 8) lxor byte (p + 1)) land 0xFF))
      lxor t (0x500 + (((c lsr 16) lxor byte (p + 2)) land 0xFF))
      lxor t (0x400 + ((c lsr 24) lxor byte (p + 3)))
      lxor t (0x300 + byte (p + 4))
      lxor t (0x200 + byte (p + 5))
      lxor t (0x100 + byte (p + 6))
      lxor t (byte (p + 7));
    i := p + 8
  done;
  for p = stop8 to off + len - 1 do
    crc := t ((!crc lxor byte p) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
