type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let s = int64 t in
  { state = mix s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Mask to OCaml's non-negative native-int range (62 value bits). *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  (* 53 random bits mapped to [0,1). *)
  float_of_int v /. 9007199254740992.0 *. bound
