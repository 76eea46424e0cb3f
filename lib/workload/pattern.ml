(* Traffic patterns: the direction enum used across the experiment
   harness, plus the arrival-process machinery shared by the open-loop
   generator (Open_loop) and the closed-loop benchmark program
   (Bench_program's refill pacing). *)

type t = Tx | Rx | Bidirectional

let guest_transmits = function Tx | Bidirectional -> true | Rx -> false
let guest_receives = function Rx | Bidirectional -> true | Tx -> false

let to_string = function
  | Tx -> "transmit"
  | Rx -> "receive"
  | Bidirectional -> "bidirectional"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Shared xorshift step over the native int: the steady-state sampling
   PRNG. Sim.Rng is SplitMix64 over boxed Int64 — fine for seeding and
   cold-path draws, unusable per packet — so sources seed from it once
   and then advance this unboxed generator. *)
let[@cdna.hot] xorshift s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = (s lxor (s lsl 17)) land max_int in
  if s = 0 then 0x9E3779B9 else s

module Throttle = struct
  type nonrec t = { interval : Sim.Time.t; mutable last : Sim.Time.t }

  let create ~interval = { interval; last = Sim.Time.zero }
  let earliest t = Sim.Time.add t.last t.interval

  let wait t ~now =
    let e = earliest t in
    if Sim.Time.compare now e < 0 then Sim.Time.diff e now else Sim.Time.zero

  let ready t ~now = Sim.Time.compare now (earliest t) >= 0
  let mark t ~now = t.last <- now
end

module Arrival = struct
  type nonrec t =
    | Constant of { gap : Sim.Time.t }
    | Poisson of { mean_gap : Sim.Time.t }
    | On_off of { on : Sim.Time.t; off : Sim.Time.t; gap : Sim.Time.t }
    | Incast of { fan_in : int; period : Sim.Time.t }

  (* Compiled form: every process is "draw a gap from a precomputed
     table / fixed state machine" so [next_gap] is branchy int work with
     no allocation and no floats. *)
  type source = {
    gaps : int array; (* quantized inter-arrival gaps, ns *)
    gmask : int; (* index mask; 0 collapses to gaps.(0) *)
    mutable prng : int;
    burst_len : int; (* arrivals per on-period; 0 when not on/off *)
    off_gap : int;
    mutable burst_left : int;
    fan_in : int; (* 0 when not incast *)
    period : int;
    mutable fan_left : int;
  }

  let table_bits = 10
  let table_len = 1 lsl table_bits

  (* Inverse-CDF table of the exponential distribution: entry [i] is the
     gap at quantile (i + 0.5) / n. Sampling a uniform index is then an
     exponential draw quantized to ~0.1% — built once, cold, with
     floats; consumed hot with ints only. *)
  let exp_table mean_ns =
    Array.init table_len (fun i ->
        let u = (float_of_int i +. 0.5) /. float_of_int table_len in
        let g = -.float_of_int mean_ns *. log u in
        Stdlib.max 1 (int_of_float (Float.round g)))

  let source ?(seed = 1) spec =
    let prng =
      let s = xorshift (seed lxor 0x2545F491) in
      xorshift (xorshift s)
    in
    let base =
      {
        gaps = [| 0 |];
        gmask = 0;
        prng;
        burst_len = 0;
        off_gap = 0;
        burst_left = 0;
        fan_in = 0;
        period = 0;
        fan_left = 0;
      }
    in
    match spec with
    | Constant { gap } ->
        if Sim.Time.compare gap Sim.Time.zero <= 0 then
          invalid_arg "Arrival.source: gap must be positive";
        { base with gaps = [| Sim.Time.to_ns gap |] }
    | Poisson { mean_gap } ->
        if Sim.Time.compare mean_gap Sim.Time.zero <= 0 then
          invalid_arg "Arrival.source: mean_gap must be positive";
        {
          base with
          gaps = exp_table (Sim.Time.to_ns mean_gap);
          gmask = table_len - 1;
        }
    | On_off { on; off; gap } ->
        if Sim.Time.compare gap Sim.Time.zero <= 0 then
          invalid_arg "Arrival.source: on-gap must be positive";
        let burst_len =
          Stdlib.max 1 (Sim.Time.to_ns on / Sim.Time.to_ns gap)
        in
        {
          base with
          gaps = [| Sim.Time.to_ns gap |];
          burst_len;
          off_gap = Sim.Time.to_ns off;
          burst_left = burst_len;
        }
    | Incast { fan_in; period } ->
        if fan_in < 1 then invalid_arg "Arrival.source: fan_in must be >= 1";
        {
          base with
          fan_in;
          period = Sim.Time.to_ns period;
          fan_left = fan_in;
        }

  (* Next inter-arrival gap in ns. Hot: called once per admitted flow. *)
  let[@cdna.hot] next_gap s =
    if s.fan_in > 0 then begin
      (* incast: [fan_in] simultaneous arrivals every [period] *)
      if s.fan_left > 0 then begin
        s.fan_left <- s.fan_left - 1;
        0
      end
      else begin
        s.fan_left <- s.fan_in - 1;
        s.period
      end
    end
    else if s.burst_len > 0 && s.burst_left = 0 then begin
      (* on/off: burst budget exhausted -> silent gap, recharge *)
      s.burst_left <- s.burst_len;
      s.off_gap
    end
    else begin
      if s.burst_len > 0 then s.burst_left <- s.burst_left - 1;
      let p = xorshift s.prng in
      s.prng <- p;
      Array.unsafe_get s.gaps (p land s.gmask)
    end

  (* Mean gap of the compiled source in ns (exact over the table),
     including on/off duty cycling and incast batching. *)
  let mean_gap_ns s =
    let sum = Array.fold_left ( + ) 0 s.gaps in
    let tbl_mean = float_of_int sum /. float_of_int (Array.length s.gaps) in
    if s.fan_in > 0 then float_of_int s.period /. float_of_int s.fan_in
    else if s.burst_len > 0 then
      (* burst_len arrivals cost (burst_len - 1 on-gaps + one off-gap) *)
      (tbl_mean *. float_of_int (s.burst_len - 1) +. float_of_int s.off_gap)
      /. float_of_int s.burst_len
    else tbl_mean

end
