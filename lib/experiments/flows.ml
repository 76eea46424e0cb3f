(* The `cdna_sim scale` experiment: open-loop flow scaling 10^3 -> 10^6
   concurrent flows, Xen-software vs CDNA.

   Each point runs Workload.Open_loop against an abstract per-packet
   datapath whose costs are derived from Cost_model (the same numbers
   the full testbed charges per packet on the transmit path):

   - Xen software path: guest stack + netfront driver + grant transfer
     + netback + bridge + driver-domain driver per packet, plus a
     flow-state touch penalty of one [touch_step] per doubling of live
     flows above 4096 — software flow lookup state falls out of cache
     as the flow table grows (Kedia & Bansal's collapse regime).
   - CDNA: guest stack + native driver + doorbell PIO + descriptor
     validate + IOMMU check; per-context state lives in NIC SRAM, so
     there is no live-flow penalty and the path is wire-limited.

   A point preloads the standing population of N flows at t=0 (the
   swept concurrency), then runs open-loop churn arrivals at ~1.05x the
   CDNA service capacity — identical offered load for both systems, so
   the slower path visibly collapses (occupancy pinned at capacity,
   admissions rejected, tails censored by the window) while the faster
   one keeps pace. *)

type scenario = Normal | Syn_flood | Churn | Incast

let scenario_to_string = function
  | Normal -> "normal"
  | Syn_flood -> "syn-flood"
  | Churn -> "churn"
  | Incast -> "incast"

let scenario_of_string = function
  | "normal" -> Some Normal
  | "syn-flood" -> Some Syn_flood
  | "churn" -> Some Churn
  | "incast" -> Some Incast
  | _ -> None

type side = {
  mbps : float;
  served_pkts : int;
  completed : int;
  rejected : int;
  expired : int;
  peak_live : int;
  live_end : int;
  mouse_n : int;
  mouse_q : int array; (* p50 / p99 / p999, ns *)
  eleph_n : int;
  eleph_q : int array;
  metrics_json : string; (* full Sim.Metrics snapshot, for determinism *)
}

type point = { flows : int; scenario : scenario; xen : side; cdna : side }

let default_flow_counts = [ 1_000; 10_000; 100_000; 1_000_000 ]
let quantile_spec = [| 50.; 99.; 99.9 |]

(* Packet framing shared with Run: 1500 B payload; 18 B L2 overhead plus
   20 B preamble/IFG on the wire; 52 B of L3/L4 headers excluded from
   goodput. *)
let payload_bytes = 1500
let wire_bits_per_pkt = (Ethernet.Frame.overhead_bytes + payload_bytes + 20) * 8
let goodput_bits_per_pkt = (payload_bytes - Run.l3_header_bytes) * 8
let link_rate_bps = 1_000_000_000

(* Per-packet datapath cost in ns, from the calibrated cost model. *)
let datapath_ns (system : Config.system) =
  let nic : Config.nic_kind =
    match system with Config.Cdna_sys -> Config.Ricenic | _ -> Config.Intel
  in
  let cm = Cost_model.for_config system nic in
  let ns = Sim.Time.to_ns in
  let g = cm.Cost_model.guest_os in
  match system with
  | Config.Cdna_sys ->
      let base =
        ns g.Guestos.Os_costs.stack_tx_per_pkt
        + ns g.Guestos.Os_costs.driver_tx_per_pkt
        + ns cm.Cost_model.cdna.Cdna.Cdna_costs.pio_doorbell
        + ns cm.Cost_model.cdna.Cdna.Cdna_costs.validate_per_desc
        + ns cm.Cost_model.cdna.Cdna.Cdna_costs.iommu_per_desc
      in
      (base, 0)
  | Config.Xen_sw | Config.Native ->
      let base =
        ns g.Guestos.Os_costs.stack_tx_per_pkt
        + ns g.Guestos.Os_costs.driver_tx_per_pkt
        + ns cm.Cost_model.xen.Xen.Costs.grant_transfer
        + ns cm.Cost_model.netback.Guestos.Netback.per_pkt_tx
        + ns cm.Cost_model.netback.Guestos.Netback.bridge_per_pkt
        + ns cm.Cost_model.driver_os.Guestos.Os_costs.driver_tx_per_pkt
      in
      (base, 800)

let wire_gap_ns ~nics =
  Sim.Time.to_ns (Sim.Time.bits_time ~bits:wire_bits_per_pkt ~rate_bps:link_rate_bps)
  / nics

(* CDNA per-packet service capacity bounds the offered load for both
   systems: same arrivals, different drain rates. *)
let cdna_service_ns ~nics =
  let base, _ = datapath_ns Config.Cdna_sys in
  Stdlib.max base (wire_gap_ns ~nics)

let sizes_of_scenario = function
  | Churn -> Workload.Open_loop.Log_uniform { min_pkts = 1; max_pkts = 8 }
  | Normal | Syn_flood | Incast ->
      Workload.Open_loop.Pareto { alpha = 1.2; min_pkts = 1; max_pkts = 16384 }

(* Offered churn load at ~1.05x CDNA capacity (packets), expressed as a
   mean flow inter-arrival gap. Scenarios reshape the process around
   the same or a deliberately harsher rate. *)
let arrival_of_scenario scenario ~mean_size ~nics =
  let cap_gap = float_of_int (cdna_service_ns ~nics) in
  let mean_gap_ns = mean_size *. cap_gap /. 1.05 in
  let gap f = Sim.Time.ns (Stdlib.max 1 (int_of_float (mean_gap_ns /. f))) in
  match scenario with
  | Normal -> Workload.Pattern.Arrival.Poisson { mean_gap = gap 1. }
  | Syn_flood ->
      (* 8x the arrival rate, half of it embryonic: table pressure *)
      Workload.Pattern.Arrival.Poisson { mean_gap = gap 8. }
  | Churn ->
      (* tiny flows in on/off bursts at 4x rate: insert/remove pressure *)
      Workload.Pattern.Arrival.On_off
        { on = Sim.Time.ms 2; off = Sim.Time.ms 2; gap = gap 8. }
  | Incast ->
      let fan_in = 64 in
      Workload.Pattern.Arrival.Incast
        {
          fan_in;
          period = Sim.Time.ns (Stdlib.max 1 (int_of_float mean_gap_ns) * fan_in);
        }

let config_for ~flows ~scenario ~seed ~nics (system : Config.system) =
  let base, touch_step = datapath_ns system in
  let sizes = sizes_of_scenario scenario in
  let mean_size = Workload.Open_loop.mean_size_of sizes in
  {
    Workload.Open_loop.capacity = flows + (flows / 4) + 64;
    arrival = arrival_of_scenario scenario ~mean_size ~nics;
    sizes;
    base_service_ns = base;
    wire_gap_ns = wire_gap_ns ~nics;
    touch_step_ns = touch_step;
    touch_floor = 4096;
    (* Processor sharing over a standing population of ~[flows] means a
       k-packet flow needs ~k full ring rounds of ~[flows] services
       each, while the window covers ~8 rounds — flows much bigger than
       8 packets are window-censored at every scale. 8 is therefore the
       largest class boundary whose upper class still completes. *)
    elephant_min_pkts = 8;
    syn_permille = (match scenario with Syn_flood -> 500 | _ -> 0);
    syn_timeout = Sim.Time.ms 250;
    seed;
  }

(* Window: 1.3x the time CDNA needs to drain the standing population,
   floored at 50 ms so small points still accumulate churn statistics. *)
let window ~quick ~flows ~mean_size ~nics =
  let drain =
    1.3 *. float_of_int flows *. mean_size *. float_of_int (cdna_service_ns ~nics)
  in
  let w = Stdlib.max 50_000_000 (int_of_float drain) in
  Sim.Time.ns (if quick then Stdlib.max 10_000_000 (w / 4) else w)

let measure ?(quick = false) ~flows ~scenario ~seed system =
  let nics = 2 in
  let engine = Sim.Engine.create () in
  let metrics = Sim.Metrics.create () in
  let cfg = config_for ~flows ~scenario ~seed ~nics system in
  let ol = Workload.Open_loop.create ~metrics engine cfg in
  let mean_size = Workload.Open_loop.mean_size_pkts ol in
  let until = window ~quick ~flows ~mean_size ~nics in
  Workload.Open_loop.preload ol ~flows;
  Workload.Open_loop.start ol ~stop_at:until;
  Sim.Engine.run engine ~until;
  let tbl = Workload.Open_loop.table ol in
  let served = Workload.Open_loop.served_pkts ol in
  let elapsed = Sim.Time.to_sec_f until in
  let q h = Sim.Stats.Histogram.quantiles h quantile_spec in
  let mice = Workload.Open_loop.mice_latency ol in
  let eleph = Workload.Open_loop.elephant_latency ol in
  {
    mbps = float_of_int (served * goodput_bits_per_pkt) /. elapsed /. 1e6;
    served_pkts = served;
    completed = Workload.Flow_table.completed tbl;
    rejected = Workload.Flow_table.rejected_full tbl;
    expired = Workload.Flow_table.expired tbl;
    peak_live = Workload.Flow_table.peak_live tbl;
    live_end = Workload.Flow_table.live tbl;
    mouse_n = Sim.Stats.Histogram.count mice;
    mouse_q = q mice;
    eleph_n = Sim.Stats.Histogram.count eleph;
    eleph_q = q eleph;
    metrics_json = Sim.Metrics.to_string metrics;
  }

let point ?quick ?(scenario = Normal) ?(seed = 1234) ~flows () =
  if flows < 0 then invalid_arg "Flows.point: flows must be >= 0";
  let xen = measure ?quick ~flows ~scenario ~seed Config.Xen_sw in
  let cdna = measure ?quick ~flows ~scenario ~seed Config.Cdna_sys in
  { flows; scenario; xen; cdna }

let sweep ?quick ?scenario ?seed ?(flow_counts = default_flow_counts) () =
  List.map (fun flows -> point ?quick ?scenario ?seed ~flows ()) flow_counts

let ms ns = float_of_int ns /. 1e6

let print_table points =
  Report.print
    ~header:
      [
        "Flows"; "Xen Mb/s"; "CDNA Mb/s"; "Xen p50ms"; "Xen p99ms";
        "Xen p999ms"; "CDNA p50ms"; "CDNA p99ms"; "CDNA p999ms"; "Xen rej";
        "CDNA rej";
      ]
    (List.map
       (fun p ->
         [
           string_of_int p.flows;
           Report.mbps p.xen.mbps;
           Report.mbps p.cdna.mbps;
           Printf.sprintf "%.1f" (ms p.xen.mouse_q.(0));
           Printf.sprintf "%.1f" (ms p.xen.mouse_q.(1));
           Printf.sprintf "%.1f" (ms p.xen.mouse_q.(2));
           Printf.sprintf "%.1f" (ms p.cdna.mouse_q.(0));
           Printf.sprintf "%.1f" (ms p.cdna.mouse_q.(1));
           Printf.sprintf "%.1f" (ms p.cdna.mouse_q.(2));
           string_of_int p.xen.rejected;
           string_of_int p.cdna.rejected;
         ])
       points);
  match points with
  | [] -> ()
  | p :: _ ->
      Printf.printf
        "(scenario %s; mouse-flow completion latency; elephants in --csv)\n"
        (scenario_to_string p.scenario)

let csv points =
  Report.csv
    ~header:
      [
        "flows"; "scenario"; "system"; "mbps"; "served_pkts"; "completed";
        "rejected"; "expired"; "peak_live"; "live_end"; "mouse_n";
        "mouse_p50_ns"; "mouse_p99_ns"; "mouse_p999_ns"; "eleph_n";
        "eleph_p50_ns"; "eleph_p99_ns"; "eleph_p999_ns";
      ]
    (List.concat_map
       (fun p ->
         List.map
           (fun (name, s) ->
             [
               string_of_int p.flows;
               scenario_to_string p.scenario;
               name;
               Printf.sprintf "%.1f" s.mbps;
               string_of_int s.served_pkts;
               string_of_int s.completed;
               string_of_int s.rejected;
               string_of_int s.expired;
               string_of_int s.peak_live;
               string_of_int s.live_end;
               string_of_int s.mouse_n;
               string_of_int s.mouse_q.(0);
               string_of_int s.mouse_q.(1);
               string_of_int s.mouse_q.(2);
               string_of_int s.eleph_n;
               string_of_int s.eleph_q.(0);
               string_of_int s.eleph_q.(1);
               string_of_int s.eleph_q.(2);
             ])
           [ ("xen_sw", p.xen); ("cdna", p.cdna) ])
       points)

let chart points =
  Report.versus_chart ~x_label:"concurrent flows"
    (List.map (fun p -> (p.flows, p.cdna.mbps, p.xen.mbps)) points)
