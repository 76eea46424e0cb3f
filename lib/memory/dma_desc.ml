type t = { addr : Addr.t; len : int; flags : int; seqno : int }

let size_bytes = 16
let flag_end_of_packet = 0x1

let write mem ~at d =
  if d.len < 0 || d.len > 0xFFFF_FFFF then
    invalid_arg "Dma_desc.write: length out of range";
  if d.flags < 0 || d.flags > 0xFFFF then
    invalid_arg "Dma_desc.write: flags out of range";
  if d.seqno < 0 || d.seqno > 0xFFFF then
    invalid_arg "Dma_desc.write: seqno out of range";
  if d.addr < 0 then invalid_arg "Dma_desc.write: negative address";
  Phys_mem.write_u64 mem ~addr:at d.addr;
  Phys_mem.write_u32 mem ~addr:(at + 8) d.len;
  Phys_mem.write_u16 mem ~addr:(at + 12) d.flags;
  Phys_mem.write_u16 mem ~addr:(at + 14) d.seqno

let read mem ~at =
  {
    addr = Phys_mem.read_u64 mem ~addr:at;
    len = Phys_mem.read_u32 mem ~addr:(at + 8);
    flags = Phys_mem.read_u16 mem ~addr:(at + 12);
    seqno = Phys_mem.read_u16 mem ~addr:(at + 14);
  }

let equal a b =
  a.addr = b.addr && a.len = b.len && a.flags = b.flags && a.seqno = b.seqno

let pp ppf d =
  Format.fprintf ppf "{addr=%a len=%d flags=0x%x seq=%d}" Addr.pp d.addr
    d.len d.flags d.seqno
