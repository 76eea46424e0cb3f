(* Open-loop traffic generator over a Flow_table.

   Load model: flows arrive from a Pattern.Arrival source regardless of
   how the datapath is keeping up (open loop — arrivals never wait on
   completions, which is what makes overload visible). Each flow draws
   a heavy-tailed size in packets from a quantized inverse-CDF table
   (bounded Pareto or log-uniform: elephants and mice). Admitted flows
   queue on a round-robin service ring; a single abstract datapath
   serves one packet per service interval, cycling the ring, so every
   live flow shares the bottleneck like processor sharing. When a
   flow's last packet is served its completion latency lands in a
   per-class histogram.

   The datapath is characterized by integers only (derived cold from
   Experiments.Cost_model by the harness):
     - [base_service_ns]: per-packet CPU cost of the datapath;
     - [wire_gap_ns]: per-packet wire time (aggregate across NICs) —
       service is the max of the two (CPU-bound vs link-bound);
     - [touch_step_ns]/[touch_floor]: per-packet flow-state touch
       penalty that grows by one step per doubling of live flows above
       [touch_floor], modelling cache/TLB pressure of software
       datapaths; 0 for hardware per-context state (CDNA).

   SYN-flood scenario: a per-mille share of arrivals are embryonic
   (zero-packet) flows that occupy table slots until a fixed timeout;
   since the timeout is constant, arrival order is expiry order and a
   FIFO ring of (slot, deadline) drains them with no search.

   Everything past [create]/[preload]/[start] is [@cdna.hot]: the
   admission, service and completion paths are statically and
   dynamically allocation-free — a million concurrent flows cost flat
   preallocated arrays and zero GC traffic. *)

type size_dist =
  | Pareto of { alpha : float; min_pkts : int; max_pkts : int }
  | Log_uniform of { min_pkts : int; max_pkts : int }

type config = {
  capacity : int;
  arrival : Pattern.Arrival.t;
  sizes : size_dist;
  base_service_ns : int;
  wire_gap_ns : int;
  touch_step_ns : int;
  touch_floor : int;
  elephant_min_pkts : int;
  syn_permille : int;
  syn_timeout : Sim.Time.t;
  seed : int;
}

let default =
  {
    capacity = 1 lsl 10;
    arrival = Pattern.Arrival.Poisson { mean_gap = Sim.Time.us 50 };
    sizes = Pareto { alpha = 1.2; min_pkts = 1; max_pkts = 16384 };
    base_service_ns = 2_600;
    wire_gap_ns = 6_152;
    touch_step_ns = 0;
    touch_floor = 4096;
    elephant_min_pkts = 64;
    syn_permille = 0;
    syn_timeout = Sim.Time.ms 3;
    seed = 1;
  }

type t = {
  engine : Sim.Engine.t;
  table : Flow_table.t;
  arrivals : Pattern.Arrival.source;
  sizes : int array; (* inverse-CDF flow-size table, packets *)
  smask : int;
  mutable prng : int;
  base_service_ns : int;
  wire_gap_ns : int;
  touch_step_ns : int;
  touch_floor : int;
  elephant_min_pkts : int;
  syn_permille : int;
  syn_timeout_ns : int;
  (* round-robin service ring of live slots *)
  ring : int array;
  rmask : int;
  mutable rhead : int;
  mutable rtail : int;
  (* FIFO of embryonic slots awaiting their fixed timeout *)
  syn_ring : int array;
  syn_deadline : int array;
  synmask : int;
  mutable shead : int;
  mutable stail : int;
  mutable stop_at_ns : int; (* no arrivals scheduled past this; 0 = none *)
  mutable server_busy : bool;
  mutable served_pkts : int;
  mice_lat : Sim.Stats.Histogram.t;
  elephant_lat : Sim.Stats.Histogram.t;
  mutable arrival_cb : unit -> unit;
  mutable service_cb : unit -> unit;
}

let rec ceil_pow2 n acc = if acc >= n then acc else ceil_pow2 n (acc * 2)
let table_bits = 12
let table_len = 1 lsl table_bits

(* Quantized inverse CDF of the flow-size distribution: entry [i] is the
   size (packets) at quantile (i + 0.5) / n. Cold float math; hot code
   samples a uniform index. *)
let size_table spec =
  let icdf =
    match spec with
    | Pareto { alpha; min_pkts; max_pkts } ->
        if alpha <= 0. || min_pkts < 1 || max_pkts < min_pkts then
          invalid_arg "Open_loop: bad Pareto parameters";
        let xm = float_of_int min_pkts and xx = float_of_int max_pkts in
        fun u ->
          let tail = 1. -. (u *. (1. -. ((xm /. xx) ** alpha))) in
          xm /. (tail ** (1. /. alpha))
    | Log_uniform { min_pkts; max_pkts } ->
        if min_pkts < 1 || max_pkts < min_pkts then
          invalid_arg "Open_loop: bad log-uniform parameters";
        let xm = float_of_int min_pkts and xx = float_of_int max_pkts in
        fun u -> xm *. ((xx /. xm) ** u)
  in
  let lo, hi =
    match spec with
    | Pareto { min_pkts; max_pkts; _ } | Log_uniform { min_pkts; max_pkts } ->
        (min_pkts, max_pkts)
  in
  Array.init table_len (fun i ->
      let u = (float_of_int i +. 0.5) /. float_of_int table_len in
      Stdlib.min hi (Stdlib.max lo (int_of_float (Float.round (icdf u)))))

(* Current per-packet service time: max of CPU cost (plus live-flow
   state-touch penalty) and wire time. *)
let[@cdna.hot] service_ns t =
  let live = Flow_table.live t.table in
  let cpu =
    if t.touch_step_ns = 0 || live < t.touch_floor then t.base_service_ns
    else
      t.base_service_ns
      + (t.touch_step_ns * Sim.Stats.log2_floor (live / t.touch_floor))
  in
  if cpu > t.wire_gap_ns then cpu else t.wire_gap_ns

let[@cdna.hot] ring_push t slot =
  Array.unsafe_set t.ring (t.rtail land t.rmask) slot;
  t.rtail <- t.rtail + 1

let[@cdna.hot] ring_pop t =
  let s = Array.unsafe_get t.ring (t.rhead land t.rmask) in
  t.rhead <- t.rhead + 1;
  s

(* Expire embryonic flows whose fixed timeout has passed. FIFO order =
   deadline order, so this is a bounded head scan, not a search. *)
let[@cdna.hot] expire_syns t now_ns =
  let scanning = ref true in
  while !scanning && t.shead <> t.stail do
    let i = t.shead land t.synmask in
    if Array.unsafe_get t.syn_deadline i <= now_ns then begin
      Flow_table.expire t.table ~slot:(Array.unsafe_get t.syn_ring i);
      t.shead <- t.shead + 1
    end
    else scanning := false
  done

let[@cdna.hot] kick_server t =
  if not t.server_busy && t.rhead <> t.rtail then begin
    t.server_busy <- true;
    Sim.Engine.schedule t.engine
      ~delay:(Sim.Time.ns (service_ns t))
      t.service_cb
  end

(* Admit one flow: the per-arrival hot path. *)
let[@cdna.hot] do_arrival t =
  let now_ns = Sim.Time.to_ns (Sim.Engine.now t.engine) in
  expire_syns t now_ns;
  let p = Pattern.xorshift t.prng in
  t.prng <- p;
  if t.syn_permille > 0 && p mod 1000 < t.syn_permille then begin
    let slot = Flow_table.insert t.table ~pkts:0 ~now:now_ns in
    if slot >= 0 then begin
      Array.unsafe_set t.syn_ring (t.stail land t.synmask) slot;
      Array.unsafe_set t.syn_deadline (t.stail land t.synmask)
        (now_ns + t.syn_timeout_ns);
      t.stail <- t.stail + 1
    end
  end
  else begin
    let p2 = Pattern.xorshift p in
    t.prng <- p2;
    let pkts = Array.unsafe_get t.sizes (p2 land t.smask) in
    let slot = Flow_table.insert t.table ~pkts ~now:now_ns in
    if slot >= 0 then begin
      ring_push t slot;
      kick_server t
    end
  end;
  let gap = Pattern.Arrival.next_gap t.arrivals in
  if t.stop_at_ns = 0 || now_ns + gap <= t.stop_at_ns then
    Sim.Engine.schedule t.engine ~delay:(Sim.Time.ns gap) t.arrival_cb

(* Serve one packet of the flow at the ring head: the per-packet hot
   path. Completion records latency into the class histogram. *)
let[@cdna.hot] do_service t =
  let now_ns = Sim.Time.to_ns (Sim.Engine.now t.engine) in
  expire_syns t now_ns;
  if t.rhead = t.rtail then t.server_busy <- false
  else begin
    let slot = ring_pop t in
    t.served_pkts <- t.served_pkts + 1;
    let left = Flow_table.dec_remaining t.table ~slot in
    if left > 0 then ring_push t slot
    else begin
      let total = Flow_table.total_pkts t.table ~slot in
      let lat = Flow_table.complete t.table ~slot ~now:now_ns in
      Sim.Stats.Histogram.add
        (if total >= t.elephant_min_pkts then t.elephant_lat else t.mice_lat)
        lat
    end;
    if t.rhead <> t.rtail then
      Sim.Engine.schedule t.engine
        ~delay:(Sim.Time.ns (service_ns t))
        t.service_cb
    else t.server_busy <- false
  end

let create ?metrics engine (cfg : config) =
  if cfg.capacity <= 0 then invalid_arg "Open_loop.create: capacity";
  if cfg.base_service_ns <= 0 || cfg.wire_gap_ns <= 0 then
    invalid_arg "Open_loop.create: service times must be positive";
  if cfg.touch_floor < 1 then invalid_arg "Open_loop.create: touch_floor";
  if cfg.syn_permille < 0 || cfg.syn_permille > 1000 then
    invalid_arg "Open_loop.create: syn_permille";
  let hist cls =
    match metrics with
    | Some m ->
        Sim.Metrics.histogram m ~labels:[ ("class", cls) ] "openloop.flow_latency_ns"
    | None -> Sim.Stats.Histogram.create ()
  in
  let ring_size = ceil_pow2 (cfg.capacity + 1) 16 in
  (* Only a scenario with SYN arrivals can make an embryonic flow. *)
  let syn_size = if cfg.syn_permille > 0 then ring_size else 1 in
  let t =
    {
      engine;
      table = Flow_table.create ~capacity:cfg.capacity;
      arrivals = Pattern.Arrival.source ~seed:cfg.seed cfg.arrival;
      sizes = size_table cfg.sizes;
      smask = table_len - 1;
      prng =
        Pattern.xorshift
          (Pattern.xorshift (cfg.seed lxor 0x5DEECE66D) lxor 0x0BADCAFE);
      base_service_ns = cfg.base_service_ns;
      wire_gap_ns = cfg.wire_gap_ns;
      touch_step_ns = cfg.touch_step_ns;
      touch_floor = cfg.touch_floor;
      elephant_min_pkts = cfg.elephant_min_pkts;
      syn_permille = cfg.syn_permille;
      syn_timeout_ns = Sim.Time.to_ns cfg.syn_timeout;
      ring = Array.make ring_size 0;
      rmask = ring_size - 1;
      rhead = 0;
      rtail = 0;
      syn_ring = Array.make syn_size 0;
      syn_deadline = Array.make syn_size 0;
      synmask = syn_size - 1;
      shead = 0;
      stail = 0;
      stop_at_ns = 0;
      server_busy = false;
      served_pkts = 0;
      mice_lat = hist "mouse";
      elephant_lat = hist "elephant";
      arrival_cb = ignore;
      service_cb = ignore;
    }
  in
  t.arrival_cb <- (fun () -> do_arrival t);
  t.service_cb <- (fun () -> do_service t);
  t

(* Admit [flows] flows immediately (the standing population of a scale
   point) without waiting for the arrival process. *)
let preload t ~flows =
  let now_ns = Sim.Time.to_ns (Sim.Engine.now t.engine) in
  for _ = 1 to flows do
    let p = Pattern.xorshift t.prng in
    t.prng <- p;
    let pkts = Array.unsafe_get t.sizes (p land t.smask) in
    let slot = Flow_table.insert t.table ~pkts ~now:now_ns in
    if slot >= 0 then ring_push t slot
  done;
  kick_server t

let start t ~stop_at =
  t.stop_at_ns <- Sim.Time.to_ns stop_at;
  let gap = Pattern.Arrival.next_gap t.arrivals in
  Sim.Engine.schedule t.engine ~delay:(Sim.Time.ns gap) t.arrival_cb;
  kick_server t

let table t = t.table
let served_pkts t = t.served_pkts
let mice_latency t = t.mice_lat
let elephant_latency t = t.elephant_lat

let mean_size_of spec =
  let tbl = size_table spec in
  let sum = Array.fold_left ( + ) 0 tbl in
  float_of_int sum /. float_of_int (Array.length tbl)

let mean_size_pkts t =
  let sum = Array.fold_left ( + ) 0 t.sizes in
  float_of_int sum /. float_of_int (Array.length t.sizes)
