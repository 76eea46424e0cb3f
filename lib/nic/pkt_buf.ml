type t = {
  capacity : int;
  mutable used : int;
  mutable drops : int;
  mutable peak : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Pkt_buf.create: non-positive capacity";
  { capacity; used = 0; drops = 0; peak = 0 }

let[@cdna.hot] capacity t = t.capacity
let[@cdna.hot] in_use t = t.used

let[@cdna.hot] try_reserve t ~bytes =
  if bytes < 0 then invalid_arg "Pkt_buf.try_reserve: negative size";
  if t.used + bytes > t.capacity then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    t.used <- t.used + bytes;
    if t.used > t.peak then t.peak <- t.used;
    true
  end

let[@cdna.hot] release t ~bytes =
  if bytes < 0 || bytes > t.used then invalid_arg "Pkt_buf.release: underflow";
  t.used <- t.used - bytes

let drops t = t.drops
let peak t = t.peak
