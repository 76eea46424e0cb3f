exception Fault of string

type region = {
  size : int;
  read : offset:int -> int;
  write : offset:int -> int -> unit;
}

let region ~size ~read ~write =
  if size <= 0 then invalid_arg "Mmio.region: non-positive size";
  { size; read; write }

type mapping = { region : region; mutable revoked : bool; mutable writes : int }

let map region = { region; revoked = false; writes = 0 }
let revoke m = m.revoked <- true
let is_revoked m = m.revoked

let check m ~offset =
  if m.revoked then raise (Fault "access through revoked mapping");
  if offset < 0 || offset + 4 > m.region.size then
    raise (Fault (Printf.sprintf "offset %d out of range" offset));
  if offset land 3 <> 0 then
    raise (Fault (Printf.sprintf "offset %d not 4-byte aligned" offset))

let read32 m ~offset =
  check m ~offset;
  m.region.read ~offset

let write32 m ~offset v =
  check m ~offset;
  m.writes <- m.writes + 1;
  m.region.write ~offset v

let write_count m = m.writes
