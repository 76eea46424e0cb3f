(* Tests for the million-flow open-loop engine: Workload.Flow_table
   (equivalence with a naive slot-level model), Workload.Pattern arrival
   processes, Sim.Stats.Histogram multi-quantile read-out, the dynamic
   zero-allocation guarantee of the admission/service path, and
   byte-identical determinism of Experiments.Flows points across
   same-seed reruns. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let qcheck = QCheck_alcotest.to_alcotest

module Ft = Workload.Flow_table
module Arrival = Workload.Pattern.Arrival
module Histogram = Sim.Stats.Histogram

(* ---------- Flow_table unit tests ---------- *)

let test_insert_complete () =
  let t = Ft.create ~capacity:4 in
  let slot = Ft.insert t ~pkts:10 ~now:1_000 in
  check_int "first slot" 0 slot;
  check_int "live" 1 (Ft.live t);
  check_int "remaining" 10 (Ft.remaining t ~slot);
  check_int "dec" 9 (Ft.dec_remaining t ~slot);
  check_int "latency" 4_000 (Ft.complete t ~slot ~now:5_000);
  check_int "live after" 0 (Ft.live t);
  check_int "completed" 1 (Ft.completed t)

let test_reject_full () =
  let t = Ft.create ~capacity:2 in
  check_int "first" 0 (Ft.insert t ~pkts:1 ~now:0);
  check_int "second" 1 (Ft.insert t ~pkts:1 ~now:0);
  check_int "full" (-1) (Ft.insert t ~pkts:1 ~now:0);
  check_int "rejected_full" 1 (Ft.rejected_full t);
  (* The argument check runs before the full check: a full table still
     raises on a negative size, and counts no rejection for it. *)
  Alcotest.check_raises "negative pkts when full"
    (Invalid_argument "Flow_table.insert") (fun () ->
      ignore (Ft.insert t ~pkts:(-1) ~now:0));
  check_int "rejected_full unchanged" 1 (Ft.rejected_full t)

let test_embryonic () =
  let t = Ft.create ~capacity:4 in
  let slot = Ft.insert t ~pkts:0 ~now:0 in
  check_bool "embryonic" true (Ft.is_embryonic t ~slot);
  Ft.expire t ~slot;
  check_int "expired" 1 (Ft.expired t);
  check_int "live" 0 (Ft.live t)

(* Slot-level model: drive the flat table and a naive model through the
   same random interleaving of insert / complete / expire /
   dec_remaining against a small capacity, so full-table rejections and
   slot reuse both occur, and require identical observable state at
   every step. The model's free list is the table's LIFO stack: slots
   start in order 0, 1, ... and the last slot released is the next one
   assigned. Ops other than insert pick the [sel]-th live slot. *)
let prop_flow_table_model =
  QCheck.Test.make ~count:500 ~name:"flow table matches slot model"
    QCheck.(
      list_of_size
        Gen.(int_range 1 120)
        (triple (int_range 0 3) (int_range 0 23) (int_range 0 5)))
    (fun ops ->
      let cap = 6 in
      let t = Ft.create ~capacity:cap in
      (* slot -> (remaining, total, arrived_at) *)
      let model : (int, int * int * int) Hashtbl.t = Hashtbl.create 16 in
      let free = ref (List.init cap Fun.id) in
      let peak = ref 0 and completed = ref 0 and expired = ref 0 in
      let rejected = ref 0 in
      let now = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let live_slots () =
        List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) model [])
      in
      let pick sel =
        match live_slots () with
        | [] -> None
        | l -> Some (List.nth l (sel mod List.length l))
      in
      let release slot =
        Hashtbl.remove model slot;
        free := slot :: !free
      in
      List.iter
        (fun (op, sel, pkts) ->
          now := !now + 7;
          (match op with
          | 0 -> (
              let slot = Ft.insert t ~pkts ~now:!now in
              match !free with
              | [] ->
                  if slot <> -1 then fail "over-capacity admit (slot %d)" slot;
                  incr rejected
              | s :: rest ->
                  if slot <> s then fail "slot %d, model expects %d" slot s;
                  free := rest;
                  Hashtbl.replace model s (pkts, pkts, !now);
                  peak := max !peak (Hashtbl.length model))
          | 1 -> (
              match pick sel with
              | None -> ()
              | Some slot ->
                  let _, _, arrived = Hashtbl.find model slot in
                  let lat = Ft.complete t ~slot ~now:!now in
                  if lat <> !now - arrived then
                    fail "latency %d <> %d" lat (!now - arrived);
                  incr completed;
                  release slot)
          | 2 -> (
              match pick sel with
              | None -> ()
              | Some slot ->
                  Ft.expire t ~slot;
                  incr expired;
                  release slot)
          | _ -> (
              match pick sel with
              | None -> ()
              | Some slot ->
                  let rem, total, arrived = Hashtbl.find model slot in
                  if rem > 0 then begin
                    let rem' = Ft.dec_remaining t ~slot in
                    if rem' <> rem - 1 then fail "rem %d <> %d" rem' (rem - 1);
                    Hashtbl.replace model slot (rem - 1, total, arrived)
                  end));
          if Ft.live t <> Hashtbl.length model then
            fail "live %d <> model %d" (Ft.live t) (Hashtbl.length model);
          if Ft.peak_live t <> !peak then
            fail "peak_live %d <> model %d" (Ft.peak_live t) !peak;
          if Ft.completed t <> !completed then fail "completed drift";
          if Ft.expired t <> !expired then fail "expired drift";
          if Ft.rejected_full t <> !rejected then fail "rejected_full drift")
        ops;
      (* Final sweep: live slots and per-flow fields agree exactly. *)
      Hashtbl.iter
        (fun slot (rem, total, arrived) ->
          if Ft.remaining t ~slot <> rem then fail "final: remaining drift";
          if Ft.total_pkts t ~slot <> total then fail "final: total drift";
          if Ft.arrived_at t ~slot <> arrived then fail "final: arrival drift";
          if Ft.is_embryonic t ~slot <> (total = 0) then
            fail "final: embryonic drift")
        model;
      let seen = ref [] in
      Ft.iter_live t (fun slot -> seen := slot :: !seen);
      List.rev !seen = live_slots ())

(* ---------- Pattern.Arrival ---------- *)

let test_arrival_constant () =
  let s = Arrival.source (Arrival.Constant { gap = Sim.Time.us 3 }) in
  for _ = 1 to 5 do
    check_int "gap" 3_000 (Arrival.next_gap s)
  done;
  check (Alcotest.float 1e-6) "mean" 3_000. (Arrival.mean_gap_ns s)

let test_arrival_poisson_mean () =
  let s = Arrival.source ~seed:7 (Arrival.Poisson { mean_gap = Sim.Time.us 10 }) in
  let n = 100_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let g = Arrival.next_gap s in
    check_bool "positive" true (g >= 1);
    sum := !sum + g
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* Quantized inverse-CDF with 1024 entries: the long-run mean tracks the
     table mean, which sits within a few percent of the continuous 10us. *)
  check_bool "mean near 10us" true (mean > 9_000. && mean < 11_000.);
  let table_mean = Arrival.mean_gap_ns s in
  check_bool "matches table mean" true
    (Float.abs (mean -. table_mean) /. table_mean < 0.02)

let test_arrival_on_off () =
  let gap = Sim.Time.us 1 in
  let s =
    Arrival.source
      (Arrival.On_off { on = Sim.Time.us 4; off = Sim.Time.us 100; gap })
  in
  (* 4us burst at 1us spacing = 4 arrivals per burst; the gap after the
     last burst arrival carries the off-period. *)
  let gaps = Array.init 10 (fun _ -> Arrival.next_gap s) in
  let long = Array.to_list gaps |> List.filter (fun g -> g > 50_000) in
  check_int "one off-gap per burst cycle" 2 (List.length long);
  Array.iter (fun g -> check_bool "gap >= spacing" true (g >= 1_000)) gaps

let test_arrival_incast () =
  let s =
    Arrival.source (Arrival.Incast { fan_in = 4; period = Sim.Time.us 8 })
  in
  (* The first fan of [fan_in] arrivals lands at the start (all-zero
     gaps); afterwards one period-length gap separates consecutive fans
     of [fan_in] simultaneous arrivals. *)
  for i = 1 to 4 do
    check_int (Printf.sprintf "first fan %d" i) 0 (Arrival.next_gap s)
  done;
  for _ = 1 to 3 do
    check_int "period" 8_000 (Arrival.next_gap s);
    check_int "fan 2" 0 (Arrival.next_gap s);
    check_int "fan 3" 0 (Arrival.next_gap s);
    check_int "fan 4" 0 (Arrival.next_gap s)
  done;
  check (Alcotest.float 1e-6) "mean = period / fan_in" 2_000.
    (Arrival.mean_gap_ns s)

let test_arrival_validation () =
  Alcotest.check_raises "zero gap"
    (Invalid_argument "Arrival.source: gap must be positive") (fun () ->
      ignore (Arrival.source (Arrival.Constant { gap = 0 })));
  Alcotest.check_raises "fan_in"
    (Invalid_argument "Arrival.source: fan_in must be >= 1") (fun () ->
      ignore (Arrival.source (Arrival.Incast { fan_in = 0; period = 100 })))

let test_xorshift_nonzero () =
  let s = ref 42 in
  for _ = 1 to 1_000 do
    s := Workload.Pattern.xorshift !s;
    check_bool "never 0" true (!s <> 0);
    check_bool "non-negative" true (!s >= 0)
  done;
  check_int "deterministic" (Workload.Pattern.xorshift 42)
    (Workload.Pattern.xorshift 42)

(* ---------- Histogram multi-quantile ---------- *)

let test_quantiles_basic () =
  let h = Histogram.create () in
  for v = 1 to 1_000 do
    Histogram.add h v
  done;
  let qs = [| 50.; 99.; 99.9 |] in
  let out = Histogram.quantiles h qs in
  check_int "matches percentile p50" (Histogram.percentile h 50.) out.(0);
  check_int "matches percentile p99" (Histogram.percentile h 99.) out.(1);
  check_int "matches percentile p999" (Histogram.percentile h 99.9) out.(2);
  check_bool "p50 near 500" true (out.(0) >= 480 && out.(0) <= 530);
  check_bool "p99 near 990" true (out.(1) >= 960 && out.(1) <= 1_000);
  check_bool "p999 <= max" true (out.(2) <= Histogram.max_value h);
  check_bool "monotone" true (out.(0) <= out.(1) && out.(1) <= out.(2))

let test_quantiles_edge_cases () =
  let h = Histogram.create () in
  let out = Histogram.quantiles h [| 50.; 99. |] in
  check_int "empty p50" 0 out.(0);
  check_int "empty p99" 0 out.(1);
  Histogram.add h 77;
  let out = Histogram.quantiles h [| 0.; 50.; 100. |] in
  check_int "p0 = min" 77 out.(0);
  check_int "p100 = max" 77 out.(2);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Histogram.quantiles_into: length mismatch") (fun () ->
      Histogram.quantiles_into h [| 50. |] (Array.make 2 0));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Histogram.quantiles_into: quantiles not sorted")
    (fun () -> ignore (Histogram.quantiles h [| 99.; 50. |]))

let test_quantiles_agree_at_scale () =
  let h = Histogram.create () in
  let s = ref 12345 in
  for _ = 1 to 50_000 do
    s := Workload.Pattern.xorshift !s;
    Histogram.add h (!s land 0xFF_FFFF)
  done;
  let qs = [| 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 99.99 |] in
  let out = Histogram.quantiles h qs in
  Array.iteri
    (fun i q ->
      check_int
        (Printf.sprintf "q%.2f matches single-quantile scan" q)
        (Histogram.percentile h q) out.(i))
    qs

(* ---------- Open_loop: dynamic zero-allocation ---------- *)

(* The [cdna_flow] A6 gate proves the admission/service path statically
   allocation-free; this is the dynamic witness. Run an open-loop point
   to a steady state, then measure [Gc.minor_words] across a further
   slab of simulated traffic: the delta must be exactly zero. *)
let test_zero_alloc_steady_state () =
  let engine = Sim.Engine.create () in
  let cfg =
    {
      Workload.Open_loop.default with
      Workload.Open_loop.capacity = 2_048;
      arrival = Arrival.Poisson { mean_gap = Sim.Time.us 2 };
      sizes = Workload.Open_loop.Pareto { alpha = 1.2; min_pkts = 1; max_pkts = 256 };
      base_service_ns = 1_000;
      wire_gap_ns = 800;
      syn_permille = 50;
      syn_timeout = Sim.Time.ms 1;
      seed = 99;
    }
  in
  let ol = Workload.Open_loop.create engine cfg in
  Workload.Open_loop.preload ol ~flows:1_024;
  Workload.Open_loop.start ol ~stop_at:(Sim.Time.ms 50);
  (* Warm up: first service completions, SYN expiries, churn. *)
  ignore (Sim.Engine.run engine ~until:(Sim.Time.ms 10));
  let served0 = Workload.Open_loop.served_pkts ol in
  let w0 = Gc.minor_words () in
  ignore (Sim.Engine.run engine ~until:(Sim.Time.ms 40));
  let w1 = Gc.minor_words () in
  let served1 = Workload.Open_loop.served_pkts ol in
  check_bool "traffic flowed" true (served1 - served0 > 5_000);
  check_int "zero minor words per packet in steady state" 0
    (int_of_float (w1 -. w0))

(* ---------- Flows determinism across same-seed reruns ---------- *)

let side_equal (a : Experiments.Flows.side) (b : Experiments.Flows.side) =
  a.Experiments.Flows.mbps = b.Experiments.Flows.mbps
  && a.served_pkts = b.served_pkts
  && a.completed = b.completed
  && a.rejected = b.rejected
  && a.expired = b.expired
  && a.peak_live = b.peak_live
  && a.live_end = b.live_end
  && a.mouse_n = b.mouse_n
  && a.mouse_q = b.mouse_q
  && a.eleph_n = b.eleph_n
  && a.eleph_q = b.eleph_q
  && String.equal a.metrics_json b.metrics_json

let test_point_deterministic_across_reruns () =
  List.iter
    (fun seed ->
      let run () =
        Experiments.Flows.measure ~quick:true ~flows:1_000
          ~scenario:Experiments.Flows.Syn_flood ~seed Experiments.Config.Cdna_sys
      in
      let first = run () and second = run () in
      check_bool
        (Printf.sprintf "seed %d: rerun identical" seed)
        true (side_equal first second);
      check_bool "metrics non-empty" true (String.length first.metrics_json > 2))
    [ 42; 7 ]

let test_point_csv_deterministic () =
  let csv () =
    Experiments.Flows.csv
      [
        Experiments.Flows.point ~quick:true ~scenario:Experiments.Flows.Churn
          ~seed:1234 ~flows:1_000 ();
      ]
  in
  check Alcotest.string "csv byte-identical across reruns" (csv ()) (csv ())

let test_point_rejects_negative_flows () =
  Alcotest.check_raises "negative flows"
    (Invalid_argument "Flows.point: flows must be >= 0") (fun () ->
      ignore (Experiments.Flows.point ~quick:true ~flows:(-5) ()))

(* A zero standing population is a real point: flows still arrive under
   churn and both systems serve them. *)
let test_point_accepts_zero_flows () =
  let p =
    Experiments.Flows.point ~quick:true ~scenario:Experiments.Flows.Churn
      ~flows:0 ()
  in
  check_int "flows" 0 p.Experiments.Flows.flows;
  check_bool "xen serves arrivals" true
    (p.Experiments.Flows.xen.Experiments.Flows.served_pkts > 0);
  check_bool "cdna serves arrivals" true
    (p.Experiments.Flows.cdna.Experiments.Flows.served_pkts > 0)

let test_sweep_rejects_negative_flows () =
  Alcotest.check_raises "negative count in sweep"
    (Invalid_argument "Flows.point: flows must be >= 0") (fun () ->
      ignore (Experiments.Flows.sweep ~quick:true ~flow_counts:[ -1 ] ()))

let test_seeds_decorrelate () =
  let run seed =
    Experiments.Flows.measure ~quick:true ~flows:1_000
      ~scenario:Experiments.Flows.Normal ~seed Experiments.Config.Xen_sw
  in
  let a = run 42 and b = run 7 in
  check_bool "different seeds, different traffic" true
    (a.Experiments.Flows.served_pkts <> b.Experiments.Flows.served_pkts
    || not (String.equal a.metrics_json b.metrics_json))

let suite =
  [
    ( "workload.flow_table",
      [
        Alcotest.test_case "insert/complete" `Quick test_insert_complete;
        Alcotest.test_case "reject full" `Quick test_reject_full;
        Alcotest.test_case "embryonic flows" `Quick test_embryonic;
        qcheck prop_flow_table_model;
      ] );
    ( "workload.arrival",
      [
        Alcotest.test_case "constant" `Quick test_arrival_constant;
        Alcotest.test_case "poisson mean" `Quick test_arrival_poisson_mean;
        Alcotest.test_case "on/off bursts" `Quick test_arrival_on_off;
        Alcotest.test_case "incast fan-in" `Quick test_arrival_incast;
        Alcotest.test_case "validation" `Quick test_arrival_validation;
        Alcotest.test_case "xorshift" `Quick test_xorshift_nonzero;
      ] );
    ( "sim.histogram.quantiles",
      [
        Alcotest.test_case "basic" `Quick test_quantiles_basic;
        Alcotest.test_case "edge cases" `Quick test_quantiles_edge_cases;
        Alcotest.test_case "agrees with percentile" `Quick
          test_quantiles_agree_at_scale;
      ] );
    ( "workload.open_loop",
      [
        Alcotest.test_case "zero-alloc steady state" `Quick
          test_zero_alloc_steady_state;
      ] );
    ( "experiments.flows",
      [
        Alcotest.test_case "deterministic across same-seed reruns" `Quick
          test_point_deterministic_across_reruns;
        Alcotest.test_case "csv deterministic" `Quick test_point_csv_deterministic;
        Alcotest.test_case "seeds decorrelate" `Quick test_seeds_decorrelate;
        Alcotest.test_case "negative flows rejected" `Quick
          test_point_rejects_negative_flows;
        Alcotest.test_case "zero flows accepted" `Quick
          test_point_accepts_zero_flows;
        Alcotest.test_case "sweep rejects negative flows" `Quick
          test_sweep_rejects_negative_flows;
      ] );
  ]
