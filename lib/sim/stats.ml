(* Halve the search window six times: 32 + 16 + 8 + 4 + 2 + 1 covers
   every bit of a 63-bit [int]. *)
let[@cdna.hot] log2_floor v =
  if v <= 1 then 0
  else begin
    let r = if v lsr 32 <> 0 then 32 else 0 in
    let v = v lsr r in
    let s = if v lsr 16 <> 0 then 16 else 0 in
    let r = r + s and v = v lsr s in
    let s = if v lsr 8 <> 0 then 8 else 0 in
    let r = r + s and v = v lsr s in
    let s = if v lsr 4 <> 0 then 4 else 0 in
    let r = r + s and v = v lsr s in
    let s = if v lsr 2 <> 0 then 2 else 0 in
    let r = r + s and v = v lsr s in
    if v lsr 1 <> 0 then r + 1 else r
  end

module Histogram = struct
  (* HDR-style log-linear bucketing: values below 2^(sub_bits+1) get exact
     buckets; above that, each power-of-two octave is split into
     2^sub_bits linear sub-buckets, bounding relative error to ~3%. *)
  let sub_bits = 5
  let linear_limit = 1 lsl (sub_bits + 1) (* 64: exact below this *)
  let octaves = 62 - sub_bits
  let buckets = linear_limit + (octaves * (1 lsl sub_bits))

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : int;
    (* exact: samples are <= 2^62-ish ns and counts are bounded, so the
       integer sum cannot overflow in practice and [add] stays boxing-free *)
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { counts = Array.make buckets 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

  let[@cdna.hot] bucket_of v =
    if v < linear_limit then v
    else begin
      let m = log2_floor v in
      let shift = m - sub_bits in
      let idx =
        linear_limit
        + ((m - (sub_bits + 1)) * (1 lsl sub_bits))
        + ((v lsr shift) - (1 lsl sub_bits))
      in
      Int.min (buckets - 1) idx
    end

  let[@cdna.hot] add t v =
    let v = Int.max 0 v in
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.n
  let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n
  let max_value t = t.max_v
  let min_value t = if t.n = 0 then 0 else t.min_v

  (* Largest value mapping to bucket [i]. *)
  let bucket_upper i =
    if i < linear_limit then i
    else begin
      let rel = i - linear_limit in
      let octave = rel / (1 lsl sub_bits) in
      let sub = rel mod (1 lsl sub_bits) in
      let shift = octave + 1 in
      (((1 lsl sub_bits) + sub + 1) lsl shift) - 1
    end

  let percentile t p =
    if t.n = 0 then 0
    else if p <= 0. then min_value t
    else begin
      let p = Float.min 100. p in
      let target = p /. 100. *. float_of_int t.n in
      let rec scan i acc =
        if i >= buckets then t.max_v
        else begin
          let acc = acc + t.counts.(i) in
          if float_of_int acc >= target then
            Stdlib.min (bucket_upper i) t.max_v
          else scan (i + 1) acc
        end
      in
      (* Start at the first bucket that can be non-empty, so a tiny
         [target] cannot be satisfied by leading empty buckets. *)
      scan (bucket_of t.min_v) 0
    end

  (* Single-scan multi-quantile read-out: [qs] must be sorted ascending;
     writes the value at each quantile into [out] (same length). One pass
     over the buckets regardless of how many quantiles are requested, so
     p50/p99/p999 of a million-sample histogram costs one scan. *)
  let quantiles_into t qs out =
    let k = Array.length qs in
    if Array.length out <> k then
      invalid_arg "Histogram.quantiles_into: length mismatch";
    for i = 1 to k - 1 do
      if qs.(i) < qs.(i - 1) then
        invalid_arg "Histogram.quantiles_into: quantiles not sorted"
    done;
    if t.n = 0 then Array.fill out 0 k 0
    else begin
      let next = ref 0 in
      (* quantiles <= 0 are exactly the minimum, as in [percentile] *)
      while !next < k && qs.(!next) <= 0. do
        out.(!next) <- min_value t;
        incr next
      done;
      let i = ref (bucket_of t.min_v) and acc = ref 0 in
      while !next < k && !i < buckets do
        acc := !acc + t.counts.(!i);
        let facc = float_of_int !acc in
        while
          !next < k
          && facc >= Float.min 100. qs.(!next) /. 100. *. float_of_int t.n
        do
          out.(!next) <- Stdlib.min (bucket_upper !i) t.max_v;
          incr next
        done;
        incr i
      done;
      while !next < k do
        out.(!next) <- t.max_v;
        incr next
      done
    end

  let quantiles t qs =
    let out = Array.make (Array.length qs) 0 in
    quantiles_into t qs out;
    out

  let reset t =
    Array.fill t.counts 0 buckets 0;
    t.n <- 0;
    t.sum <- 0;
    t.min_v <- max_int;
    t.max_v <- 0

end
