(* CRC-32 (IEEE 802.3), slicing-by-8.

   [tables.(0)] is the classic byte-at-a-time table; tables 1-7 extend it
   so eight input bytes fold into the running CRC with eight table loads
   and no per-byte loop — mathematically identical to the byte-wise
   recurrence, just reassociated. The streaming primitives ([init_crc],
   [feed], [finish]) expose the same recurrence one byte at a time so
   payload specs can be checksummed without materializing.

   The tables are built eagerly at module initialization — which runs on
   the main domain, before any [Domain.spawn] — and are read-only
   afterwards, so LP callbacks on worker domains can share them without a
   racing [Lazy.force]. *)

let tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  let tables = Array.make 8 t0 in
  for k = 1 to 7 do
    let prev = tables.(k - 1) in
    tables.(k) <-
      Array.init 256 (fun n ->
          let c = prev.(n) in
          t0.(c land 0xff) lxor (c lsr 8))
  done;
  tables

let init_crc = 0xFFFFFFFF

let[@cdna.hot] finish crc = crc lxor 0xFFFFFFFF

let[@cdna.hot] digest_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest_sub: bad bounds";
  let t0 = Array.unsafe_get tables 0
  and t1 = Array.unsafe_get tables 1
  and t2 = Array.unsafe_get tables 2
  and t3 = Array.unsafe_get tables 3
  and t4 = Array.unsafe_get tables 4
  and t5 = Array.unsafe_get tables 5
  and t6 = Array.unsafe_get tables 6
  and t7 = Array.unsafe_get tables 7 in
  let crc = ref init_crc in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let i0 = !i in
    let c = !crc in
    let b0 = Char.code (Bytes.unsafe_get b i0)
    and b1 = Char.code (Bytes.unsafe_get b (i0 + 1))
    and b2 = Char.code (Bytes.unsafe_get b (i0 + 2))
    and b3 = Char.code (Bytes.unsafe_get b (i0 + 3))
    and b4 = Char.code (Bytes.unsafe_get b (i0 + 4))
    and b5 = Char.code (Bytes.unsafe_get b (i0 + 5))
    and b6 = Char.code (Bytes.unsafe_get b (i0 + 6))
    and b7 = Char.code (Bytes.unsafe_get b (i0 + 7)) in
    crc :=
      Array.unsafe_get t7 ((c lxor b0) land 0xff)
      lxor Array.unsafe_get t6 (((c lsr 8) lxor b1) land 0xff)
      lxor Array.unsafe_get t5 (((c lsr 16) lxor b2) land 0xff)
      lxor Array.unsafe_get t4 (((c lsr 24) lxor b3) land 0xff)
      lxor Array.unsafe_get t3 b4
      lxor Array.unsafe_get t2 b5
      lxor Array.unsafe_get t1 b6
      lxor Array.unsafe_get t0 b7;
    i := i0 + 8
  done;
  let stop = pos + len in
  while !i < stop do
    crc :=
      Array.unsafe_get t0 ((!crc lxor Char.code (Bytes.unsafe_get b !i)) land 0xff)
      lxor (!crc lsr 8);
    incr i
  done;
  finish !crc

let[@cdna.hot] digest b = digest_sub b ~pos:0 ~len:(Bytes.length b)
