(* Unit and property tests for lfs_util: bitset, CRC, RNG, Zipf, codec,
   tables. *)

module Bitset = Lfs_util.Bitset
module Codec = Lfs_util.Codec
module Crc32 = Lfs_util.Crc32
module Rng = Lfs_util.Rng
module Table = Lfs_util.Table
module Zipf = Lfs_util.Zipf

let qcheck = Common.qcheck

(* Bitset *)

(* [iter_set] skips zero bytes; the model tests every bit.  Lengths up
   to 200 give partial last bytes; empty and full sets are forced in a
   third of the cases each.  Clearing each bit as it is visited (what
   [Inode_store.dirty_inodes] does) must not change the walk. *)
let prop_bitset_iter_set =
  QCheck.Test.make ~name:"bitset iter_set matches a per-bit scan" ~count:300
    QCheck.(triple (int_bound 200) (int_bound 2) (list (int_bound 199)))
    (fun (len, shape, sets) ->
      let b = Bitset.create len in
      (match shape with
      | 0 -> ()
      | 1 -> Bitset.fill_all b
      | _ -> List.iter (fun i -> if i < len then Bitset.set b i) sets);
      let model = List.filter (Bitset.mem b) (List.init len Fun.id) in
      let walk ~clear =
        let acc = ref [] in
        Bitset.iter_set
          (fun i ->
            acc := i :: !acc;
            if clear then Bitset.clear b i)
          b;
        List.rev !acc
      in
      walk ~clear:false = model
      && walk ~clear:true = model
      && Bitset.cardinal b = 0)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 99;
  Bitset.set b 42;
  Alcotest.(check int) "three" 3 (Bitset.cardinal b);
  Alcotest.(check bool) "mem" true (Bitset.mem b 42);
  Bitset.set b 42;
  Alcotest.(check int) "idempotent" 3 (Bitset.cardinal b);
  Bitset.clear b 42;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 42);
  Alcotest.(check int) "two" 2 (Bitset.cardinal b);
  (match Bitset.find_first_clear b with
  | Some 1 -> ()
  | other ->
      Alcotest.failf "find_first_clear: %s"
        (match other with Some n -> string_of_int n | None -> "none"));
  Alcotest.(check bool) "oob" true
    (try
       Bitset.set b 100;
       false
     with Invalid_argument _ -> true)

let test_bitset_wrap_search () =
  let b = Bitset.create 10 in
  for i = 0 to 9 do
    Bitset.set b i
  done;
  Bitset.clear b 2;
  Alcotest.(check (option int)) "wraps" (Some 2) (Bitset.find_first_clear ~start:5 b);
  Bitset.set b 2;
  Alcotest.(check (option int)) "full" None (Bitset.find_first_clear b)

let test_bitset_fill_all () =
  let b = Bitset.create 13 in
  Bitset.fill_all b;
  Alcotest.(check int) "all set" 13 (Bitset.cardinal b);
  Bitset.clear_all b;
  Alcotest.(check int) "all clear" 0 (Bitset.cardinal b)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset serialize roundtrip" ~count:100
    QCheck.(pair (int_bound 200) (list (int_bound 199)))
    (fun (len, sets) ->
      let len = len + 1 in
      let b = Bitset.create len in
      List.iter (fun i -> if i < len then Bitset.set b i) sets;
      let b' = Bitset.of_bytes ~length:len (Bitset.to_bytes b) in
      Bitset.cardinal b = Bitset.cardinal b'
      && List.for_all (fun i -> i >= len || Bitset.mem b' i) sets)

(* CRC32 *)

let test_crc32_vectors () =
  (* Standard test vector: "123456789" -> 0xCBF43926. *)
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest_string "");
  Alcotest.(check bool) "sensitive" true
    (Crc32.digest_string "a" <> Crc32.digest_string "b")

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "slice" 0xCBF43926l (Crc32.digest_bytes ~off:2 ~len:9 b)

(* Bit-at-a-time CRC-32, straight from the definition: the reference the
   table-driven implementation is checked against. *)
let crc32_reference b ~off ~len =
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let test_crc32_differential () =
  let n = 1 lsl 20 in
  let b = Bytes.init n (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xFF)) in
  let check off len =
    Alcotest.(check int32)
      (Printf.sprintf "off %d len %d" off len)
      (crc32_reference b ~off ~len)
      (Crc32.digest_bytes ~off ~len b)
  in
  (* Every alignment and every tail length around the 16-byte stride. *)
  for off = 0 to 15 do
    for len = 0 to 64 do
      check off len
    done
  done;
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let off = Rng.int rng n in
    let len = Rng.int rng (min 4096 (n - off) + 1) in
    check off len
  done;
  Alcotest.(check int32) "whole buffer"
    (crc32_reference b ~off:0 ~len:n)
    (Crc32.digest_bytes b);
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Crc32.digest_bytes (Bytes.of_string "123456789"));
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let small = Bytes.create 16 in
  rejects "negative off" (fun () -> Crc32.digest_bytes ~off:(-1) small);
  rejects "off past end" (fun () -> Crc32.digest_bytes ~off:17 small);
  rejects "negative len" (fun () -> Crc32.digest_bytes ~len:(-1) small);
  rejects "len past end" (fun () -> Crc32.digest_bytes ~off:8 ~len:9 small);
  rejects "off + len overflows" (fun () ->
      Crc32.digest_bytes ~off:1 ~len:max_int small);
  rejects "off past end, no len" (fun () ->
      Crc32.digest_bytes ~off:max_int small)

(* The slicing-by-8 loop the library ran in OCaml before the C kernel,
   kept as the model the kernel is checked against: eight 256-entry
   tables, table [k] advancing a byte through [k] further zero bytes. *)
let crc32_tables =
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

let crc32_model b ~off ~len =
  let t i = crc32_tables.(i) in
  let byte i = Char.code (Bytes.get b i) in
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

(* Both kernels against the model: every alignment 0..15 with every
   length 0..300 covers calls under 64 bytes, exactly 64, and 64 + k*16
   with every tail; then whole and oddly sliced 4 KB pages and a 1 MB
   buffer.  [digest_portable] runs slicing-by-16 alone, so the fallback
   stays covered on a CPU where [digest_bytes] folds. *)
let test_crc32_model () =
  let check what b ~off ~len =
    let want = crc32_model b ~off ~len in
    List.iter
      (fun (kernel, digest) ->
        let got = digest ?off:(Some off) ?len:(Some len) b in
        if got <> want then
          Alcotest.failf "%s, %s, off %d len %d: kernel %lx, model %lx" kernel
            what off len got want)
      [
        (Crc32.kernel (), Crc32.digest_bytes);
        ("slicing-by-16", Crc32.digest_portable);
      ]
  in
  let random n seed =
    let b = Bytes.create n in
    Rng.fill_bytes (Rng.create seed) b;
    b
  in
  let small = random 320 1 in
  for off = 0 to 15 do
    for len = 0 to 300 do
      check "every alignment" small ~off ~len
    done;
    for len = 0 to 64 do
      if crc32_model small ~off ~len <> crc32_reference small ~off ~len then
        Alcotest.failf "model off %d len %d disagrees with the definition" off
          len
    done
  done;
  List.iter
    (fun seed ->
      let page = random 4096 seed in
      check "4 KB" page ~off:0 ~len:4096;
      check "4 KB, odd slice" page ~off:(seed land 15) ~len:(4096 - 31))
    [ 2; 3; 4; 5 ];
  let mb = random (1 lsl 20) 6 in
  check "1 MB" mb ~off:0 ~len:(1 lsl 20);
  check "1 MB, odd slice" mb ~off:7 ~len:((1 lsl 20) - 20);
  Alcotest.(check int32) "portable check value" 0xCBF43926l
    (Crc32.digest_portable (Bytes.of_string "123456789"))

(* The "flags" line of /proc/cpuinfo, split on spaces (an x86 line;
   [None] where there is no such file or line). *)
let cpu_flags () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.starts_with ~prefix:"flags" line then
              Some (String.split_on_char ' ' line)
            else scan ()
      in
      let flags = scan () in
      close_in ic;
      flags

(* A dispatch that never fires would lose the vector kernel with every
   result still right, so on an x86-64 CPU that lists [flag] the kernel
   in use must be [want].  Elsewhere there is nothing to check. *)
let check_dispatch ~flag ~want kernel =
  match cpu_flags () with
  | Some flags when Sys.word_size = 64 && List.mem flag flags ->
      Alcotest.(check string) "kernel" want kernel
  | Some _ | None -> Alcotest.skip ()

let test_crc32_dispatch () =
  check_dispatch ~flag:"pclmulqdq" ~want:"pclmul" (Crc32.kernel ())

(* RNG *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v;
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = Array.init 50 Fun.id)

(* The one byte generator.  The model is the per-byte definition
   [Driver.content] had before [Rng.fill_bytes]:
   [Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))], written out
   as the loop [Bytes.init] runs (f applied to indices in increasing
   order). *)
let model_content rng len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 256))
  done;
  b

let special_seeds = [ min_int; max_int; 999_999 ]

(* Every seed in -50..5000 up to 4 KB.  The 64 KB length runs the same
   loop further, so it takes every 50th seed: on all of them the model
   alone would make 331 M boxed draws. *)
let test_content_matches_model () =
  let check len seeds =
    List.iter
      (fun seed ->
        if
          not
            (Bytes.equal
               (model_content (Rng.create seed) len)
               (Lfs_workload.Driver.content ~seed len))
        then Alcotest.failf "content ~seed:%d %d differs from the model" seed len)
      (seeds @ special_seeds)
  in
  let all = List.init 5051 (fun i -> i - 50) in
  List.iter (fun len -> check len all) [ 0; 1; 7; 4096 ];
  check 65536 (List.filter (fun s -> s mod 50 = 0) all)

(* Both fill kernels.  [fill_bytes_portable] runs the portable loop
   alone, so the fallback stays covered on a CPU where [fill_bytes]
   vectorises. *)
let fill_kernels =
  [ (Rng.kernel (), Rng.fill_bytes); ("portable", Rng.fill_bytes_portable) ]

(* Every length 0..300 covers the 16-byte vector steps with every tail;
   seeded 64 KB buffers run the loop far. *)
let fill_lengths = List.init 301 Fun.id

let test_fill_bytes_leaves_state () =
  List.iter
    (fun (kernel, fill) ->
      List.iter
        (fun seed ->
          List.iter
            (fun len ->
              let filled = Rng.create seed and model = Rng.create seed in
              fill filled (Bytes.create len);
              ignore (model_content model len : bytes);
              for k = 1 to 100 do
                let want = Rng.int model 256 and got = Rng.int filled 256 in
                if got <> want then
                  Alcotest.failf
                    "%s: seed %d len %d: draw %d after fill is %d, model %d"
                    kernel seed len k got want
              done)
            (fill_lengths @ [ 4096; 65536 ]))
        [ -50; 0; 1; 999_999; min_int; max_int ])
    fill_kernels

let test_fill_kernels () =
  let check seed len =
    let want = model_content (Rng.create seed) len in
    List.iter
      (fun (kernel, fill) ->
        let b = Bytes.make len '\255' in
        fill (Rng.create seed) b;
        if not (Bytes.equal b want) then
          Alcotest.failf "%s: seed %d len %d differs from the model" kernel
            seed len)
      fill_kernels
  in
  List.iter
    (fun seed -> List.iter (check seed) fill_lengths)
    ([ -50; 0; 1; 2; 3 ] @ special_seeds);
  List.iter (fun seed -> check seed 65536) [ 4; 5; min_int ]

let test_fill_dispatch () =
  check_dispatch ~flag:"avx512dq" ~want:"avx512" (Rng.kernel ())

(* A silent change to the byte sequence moves every figure: pin it. *)
let test_content_golden () =
  Alcotest.(check int32) "crc32 of content ~seed:1 4096" 0xE493185Cl
    (Crc32.digest_bytes (Lfs_workload.Driver.content ~seed:1 4096))

(* Words allocated by [f ()], minor + major - promoted, net of the
   measurement's own boxed floats. *)
let allocated_words f =
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let empty = let a = words () in words () -. a in
  let before = words () in
  let r = f () in
  (words () -. before -. empty, r)

let test_content_allocation () =
  let len = 65536 in
  let words, b = allocated_words (fun () -> Lfs_workload.Driver.content ~seed:3 len) in
  Alcotest.(check int) "length" len (Bytes.length b);
  let bound = float_of_int ((len / 8) + 16) in
  if words > bound then
    Alcotest.failf "content ~seed:3 %d allocated %.0f words (bound %.0f)" len
      words bound

(* Zipf *)

let test_zipf_skew () =
  let z = Zipf.create ~n:100 ~theta:1.0 in
  let r = Rng.create 5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z r in
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must be sampled much more than rank 99, and everything must
     be in range (guaranteed by the array). *)
  Alcotest.(check bool) "skewed" true (counts.(0) > 10 * max 1 counts.(99))

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let r = Rng.create 6 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    counts.(Zipf.sample z r) <- counts.(Zipf.sample z r) + 1
  done;
  Array.iter
    (fun c -> if c < 500 then Alcotest.failf "uniform too skewed: %d" c)
    counts

(* Codec *)

let test_codec_basic () =
  let e = Codec.encoder () in
  Codec.u8 e 255;
  Codec.u16 e 65535;
  Codec.u32 e 0xDEADBEEF;
  Codec.i64 e (-1L);
  Codec.bool e true;
  Codec.string_u16 e "hello";
  let d = Codec.decoder (Codec.to_bytes e) in
  Alcotest.(check int) "u8" 255 (Codec.read_u8 d);
  Alcotest.(check int) "u16" 65535 (Codec.read_u16 d);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.read_u32 d);
  Alcotest.(check int64) "i64" (-1L) (Codec.read_i64 d);
  Alcotest.(check bool) "bool" true (Codec.read_bool d);
  Alcotest.(check string) "string" "hello" (Codec.read_string_u16 d);
  Alcotest.(check int) "drained" 0 (Codec.remaining d)

let test_codec_errors () =
  let e = Codec.encoder () in
  Alcotest.(check bool) "u8 range" true
    (try
       Codec.u8 e 256;
       false
     with Codec.Error _ -> true);
  let d = Codec.decoder (Bytes.create 1) in
  Alcotest.(check bool) "truncated" true
    (try
       ignore (Codec.read_u32 d);
       false
     with Codec.Error _ -> true)

let test_codec_pad () =
  let e = Codec.encoder () in
  Codec.u8 e 7;
  Codec.pad_to e 16;
  let b = Codec.to_bytes e in
  Alcotest.(check int) "padded" 16 (Bytes.length b);
  Alcotest.(check int) "zero fill" 0 (Char.code (Bytes.get b 10))

let prop_codec_ints =
  QCheck.Test.make ~name:"codec int roundtrips" ~count:500
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0x3FFFFFFF) int64)
    (fun (a, b, c) ->
      let e = Codec.encoder () in
      Codec.u16 e a;
      Codec.u32 e b;
      Codec.i64 e c;
      Codec.int_as_i64 e (a + b);
      let d = Codec.decoder (Codec.to_bytes e) in
      Codec.read_u16 d = a
      && Codec.read_u32 d = b
      && Codec.read_i64 d = c
      && Codec.read_int_as_i64 d = a + b)

let prop_codec_strings =
  QCheck.Test.make ~name:"codec string roundtrips" ~count:200
    QCheck.(small_list (string_of_size (Gen.int_bound 50)))
    (fun strings ->
      let e = Codec.encoder () in
      List.iter (Codec.string_u16 e) strings;
      let d = Codec.decoder (Codec.to_bytes e) in
      List.for_all (fun s -> Codec.read_string_u16 d = s) strings)

(* Table *)

let test_table_render () =
  let out =
    Table.render ~headers:[ "name"; "n" ] [ [ "a"; "1" ]; [ "long"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* All non-empty lines same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_table_formats () =
  Alcotest.(check string) "bytes" "1.0 MB" (Table.fmt_bytes (1024 * 1024));
  Alcotest.(check string) "kb" "1.5 KB" (Table.fmt_bytes 1536);
  Alcotest.(check string) "ratio" "2.5x" (Table.fmt_ratio 2.5)

let suite =
  [
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset wrap search" `Quick test_bitset_wrap_search;
    Alcotest.test_case "bitset fill/clear all" `Quick test_bitset_fill_all;
    qcheck prop_bitset_roundtrip;
    qcheck prop_bitset_iter_set;
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 slice" `Quick test_crc32_slice;
    Alcotest.test_case "crc32 matches bitwise reference" `Quick
      test_crc32_differential;
    Alcotest.test_case "crc32 matches the slicing-by-8 model" `Quick
      test_crc32_model;
    Alcotest.test_case "crc32 folds where the CPU can" `Quick
      test_crc32_dispatch;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "content matches per-byte model" `Quick
      test_content_matches_model;
    Alcotest.test_case "fill_bytes leaves the generator in step" `Quick
      test_fill_bytes_leaves_state;
    Alcotest.test_case "fill kernels match the per-byte model" `Quick
      test_fill_kernels;
    Alcotest.test_case "fill vectorises where the CPU can" `Quick
      test_fill_dispatch;
    Alcotest.test_case "content golden crc" `Quick test_content_golden;
    Alcotest.test_case "content allocates only its buffer" `Quick
      test_content_allocation;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
    Alcotest.test_case "codec basic" `Quick test_codec_basic;
    Alcotest.test_case "codec errors" `Quick test_codec_errors;
    Alcotest.test_case "codec pad" `Quick test_codec_pad;
    qcheck prop_codec_ints;
    qcheck prop_codec_strings;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table formats" `Quick test_table_formats;
  ]
