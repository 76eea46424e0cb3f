type t = int (* low 48 bits *)

let mask48 = (1 lsl 48) - 1

let make i =
  if i < 0 || i >= 1 lsl 40 then invalid_arg "Mac_addr.make: index out of range";
  (* 0x02 in the first octet: locally administered, unicast. *)
  (0x02 lsl 40) lor i

let broadcast = mask48
let to_int48 t = t
let equal = Int.equal
let is_broadcast t = t = broadcast
let is_multicast t = (t lsr 40) land 0x01 = 1

let pp ppf t =
  Format.fprintf ppf "%02x:%02x:%02x:%02x:%02x:%02x" ((t lsr 40) land 0xff)
    ((t lsr 32) land 0xff)
    ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff)
    (t land 0xff)

let to_string t = Format.asprintf "%a" pp t
