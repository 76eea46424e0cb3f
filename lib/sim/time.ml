type t = int

let zero = 0
let[@cdna.hot] ns n = n
let[@cdna.hot] us n = n * 1_000
let[@cdna.hot] ms n = n * 1_000_000
let[@cdna.hot] sec n = n * 1_000_000_000

let of_us_f u =
  if not (Float.is_finite u) || u < 0. then
    invalid_arg "Time.of_us_f: negative or non-finite";
  int_of_float (Float.round (u *. 1e3))

let[@cdna.hot] to_ns t = t
let to_sec_f t = float_of_int t /. 1e9
let[@cdna.hot] add a b = a + b
let[@cdna.hot] sub a b = a - b
let[@cdna.hot] diff a b = if a > b then a - b else 0

let[@cdna.hot] mul_int d n =
  if n < 0 then invalid_arg "Time.mul_int: negative factor";
  d * n

let[@cdna.hot] div_int d n =
  if n <= 0 then invalid_arg "Time.div_int: non-positive divisor";
  d / n

let[@cdna.hot] compare (a : t) b = Int.compare a b
let[@cdna.hot] max (a : t) b = if a > b then a else b

let[@cdna.hot] bits_time ~bits ~rate_bps =
  if rate_bps <= 0 then invalid_arg "Time.bits_time: non-positive rate";
  if bits < 0 then invalid_arg "Time.bits_time: negative bits";
  (* bits * 1e9 / rate could overflow a 63-bit int only for absurd sizes;
     frames here are <= 64 KB so the product stays far below 2^62. *)
  bits * 1_000_000_000 / rate_bps

let pp ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (to_sec_f t)
  else if t >= 1_000_000 then
    Format.fprintf ppf "%.3fms" (float_of_int t /. 1e6)
  else if t >= 1_000 then Format.fprintf ppf "%.3fus" (float_of_int t /. 1e3)
  else Format.fprintf ppf "%dns" t

let to_string t = Format.asprintf "%a" pp t
