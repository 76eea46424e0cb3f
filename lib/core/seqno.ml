let modulus = 1 lsl 16
let max_ring_slots = modulus / 2
let next c = (c + 1) mod modulus
let continuous ~expected ~got = got = expected mod modulus

let stale_value ~expected ~ring_slots =
  ((expected - ring_slots) mod modulus + modulus) mod modulus
