(* Tests for the workload library: connections (windows, in-order
   receive) and the benchmark program. *)

(* The cost records these tests' expected values were measured with. *)
let os_costs =
  {
    Guestos.Os_costs.stack_tx_per_pkt = Sim.Time.ns 1_400;
    stack_rx_per_pkt = Sim.Time.ns 1_900;
    stack_wakeup_fixed = Sim.Time.ns 900;
    driver_tx_per_pkt = Sim.Time.ns 900;
    driver_rx_per_pkt = Sim.Time.ns 1_100;
    driver_wakeup_fixed = Sim.Time.us 2;
    app_per_pkt = Sim.Time.ns 60;
    app_wakeup = Sim.Time.ns 500;
    rx_poll_budget = 64;
    tx_batch_limit = 64;
  }

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let conn ?(id = 1) ?(window = 8) () =
  Workload.Connection.create ~id ~window ~payload_len:1000
    ~src:(Ethernet.Mac_addr.make 1)
    ~dst:(Ethernet.Mac_addr.make 2)

(* ---------- Connection ---------- *)

let test_conn_window_accounting () =
  let c = conn () in
  check_int "full credits" 8 (Workload.Connection.credits c);
  check_int "take 3" 3 (Workload.Connection.take_credits c 3);
  check_int "remaining" 5 (Workload.Connection.credits c);
  check_int "take more than left" 5 (Workload.Connection.take_credits c 10);
  check_int "exhausted" 0 (Workload.Connection.credits c);
  Workload.Connection.add_credits c 4;
  check_int "acked" 4 (Workload.Connection.credits c);
  (* Over-crediting clamps. *)
  Workload.Connection.add_credits c 100;
  check_int "clamped at window" 8 (Workload.Connection.credits c)

let test_conn_frames_sequence () =
  let c = conn () in
  let f0 = Workload.Connection.make_frame c in
  let f1 = Workload.Connection.make_frame c in
  check_int "seq 0" 0 f0.Ethernet.Frame.seq;
  check_int "seq 1" 1 f1.Ethernet.Frame.seq;
  check_int "flow id" 1 f0.Ethernet.Frame.flow;
  check_int "sent" 2 (Workload.Connection.sent c);
  (* Retransmission builds the identical frame. *)
  let again = Workload.Connection.frame_with_seq c ~seq:0 in
  check_int "same seed" f0.Ethernet.Frame.payload_seed
    again.Ethernet.Frame.payload_seed

let test_conn_in_order_receive () =
  let tx = conn () in
  let rx = conn () in
  let f0 = Workload.Connection.make_frame tx in
  let f1 = Workload.Connection.make_frame tx in
  let f2 = Workload.Connection.make_frame tx in
  check_bool "accept 0" true (Workload.Connection.record_received rx f0 = `Accepted);
  (* A gap: 2 before 1 is rejected. *)
  check_bool "reject gap" true (Workload.Connection.record_received rx f2 = `Rejected);
  check_bool "accept 1" true (Workload.Connection.record_received rx f1 = `Accepted);
  (* Duplicate of 1 rejected; retransmitted 2 accepted. *)
  check_bool "reject dup" true (Workload.Connection.record_received rx f1 = `Rejected);
  check_bool "accept retx" true (Workload.Connection.record_received rx f2 = `Accepted);
  check_int "received" 3 (Workload.Connection.received rx);
  check_int "rejected" 2 (Workload.Connection.rejected rx)

let test_conn_integrity_check () =
  let tx = conn () in
  let rx = conn () in
  let f = Ethernet.Frame.with_data (Workload.Connection.make_frame tx) in
  ignore (Workload.Connection.record_received rx f);
  check_int "clean" 0 (Workload.Connection.integrity_failures rx);
  let f2 = Workload.Connection.make_frame tx in
  let corrupted =
    { f2 with Ethernet.Frame.data = Some (Bytes.make 1000 'X') }
  in
  ignore (Workload.Connection.record_received rx corrupted);
  check_int "corruption detected" 1 (Workload.Connection.integrity_failures rx)

let test_conn_super_frames () =
  let tx = conn ~window:8 () in
  let rx = conn ~window:8 () in
  check_int "take for gso" 4 (Workload.Connection.take_credits tx 4);
  let super = Workload.Connection.make_frame ~segments:4 tx in
  check_int "covers 4 seqs" 4 super.Ethernet.Frame.segments;
  check_int "sent counts segments" 4 (Workload.Connection.sent tx);
  check_bool "accepted" true
    (Workload.Connection.record_received rx super = `Accepted);
  check_int "received counts segments" 4 (Workload.Connection.received rx);
  (* The stream continues at seq 4. *)
  let next = Workload.Connection.make_frame tx in
  check_int "next seq" 4 next.Ethernet.Frame.seq;
  check_bool "in order continues" true
    (Workload.Connection.record_received rx next = `Accepted)

let test_conn_reset () =
  let c = conn () in
  ignore (Workload.Connection.make_frame c);
  Workload.Connection.reset_counters c;
  check_int "sent zeroed" 0 (Workload.Connection.sent c)

(* ---------- Pattern ---------- *)

let test_pattern () =
  check_bool "tx transmits" true (Workload.Pattern.guest_transmits Workload.Pattern.Tx);
  check_bool "tx no rx" false (Workload.Pattern.guest_receives Workload.Pattern.Tx);
  check_bool "rx receives" true (Workload.Pattern.guest_receives Workload.Pattern.Rx);
  check_bool "bidir both" true
    (Workload.Pattern.guest_transmits Workload.Pattern.Bidirectional
    && Workload.Pattern.guest_receives Workload.Pattern.Bidirectional)

(* ---------- Bench_program ---------- *)

let bench_fixture () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let entity = Host.Cpu.add_entity cpu ~name:"app" ~weight:256 ~domain:0 in
  let post_user ~cost fn =
    Host.Cpu.post cpu entity ~category:(Host.Category.User 0) ~cost fn
  in
  let post_kernel ~cost fn =
    Host.Cpu.post cpu entity ~category:(Host.Category.Kernel 0) ~cost fn
  in
  let dev_sent = ref [] in
  let nd =
    Guestos.Netdev.create ~mac:(Ethernet.Mac_addr.make 1)
      ~send:(fun fs -> dev_sent := !dev_sent @ fs)
      ~tx_space:(fun () -> 1000)
  in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:nd
  in
  let acks = ref [] in
  let bench =
    Workload.Bench_program.create engine ~post_user
      ~costs:os_costs
      ~ack:(fun c n -> acks := (Workload.Connection.id c, n) :: !acks)
      ()
  in
  (engine, nd, stack, bench, dev_sent, acks)

let run engine ms =
  Sim.Engine.run engine
    ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let test_bench_fills_windows () =
  let engine, _, stack, bench, dev_sent, _ = bench_fixture () in
  let c1 = conn ~id:1 ~window:5 () and c2 = conn ~id:2 ~window:5 () in
  Workload.Bench_program.add_stream bench ~stack ~tx:[ c1; c2 ] ~rx:[];
  Workload.Bench_program.start bench;
  run engine 5;
  check_int "both windows filled" 10 (List.length !dev_sent);
  check_int "c1 exhausted" 0 (Workload.Connection.credits c1);
  check_int "c2 exhausted" 0 (Workload.Connection.credits c2)

let test_bench_balances_connections () =
  let engine, _, stack, bench, dev_sent, _ = bench_fixture () in
  let c1 = conn ~id:1 ~window:6 () and c2 = conn ~id:2 ~window:6 () in
  Workload.Bench_program.add_stream bench ~stack ~tx:[ c1; c2 ] ~rx:[];
  Workload.Bench_program.start bench;
  run engine 5;
  let by_flow flow =
    List.length (List.filter (fun f -> f.Ethernet.Frame.flow = flow) !dev_sent)
  in
  check_int "balanced c1" 6 (by_flow 1);
  check_int "balanced c2" 6 (by_flow 2)

let test_bench_credits_refill () =
  let engine, _, stack, bench, dev_sent, _ = bench_fixture () in
  let c = conn ~id:1 ~window:4 () in
  Workload.Bench_program.add_stream bench ~stack ~tx:[ c ] ~rx:[];
  Workload.Bench_program.start bench;
  run engine 5;
  check_int "window sent" 4 (List.length !dev_sent);
  Workload.Bench_program.on_credit bench c 2;
  run engine 5;
  check_int "refilled" 6 (List.length !dev_sent)

let test_bench_rx_consumes_and_acks () =
  let engine, nd, stack, bench, _, acks = bench_fixture () in
  let tx_side = conn ~id:7 () in
  let rx_conn = conn ~id:7 () in
  Workload.Bench_program.add_stream bench ~stack ~tx:[] ~rx:[ rx_conn ];
  ignore stack;
  let frames = List.init 3 (fun _ -> Workload.Connection.make_frame tx_side) in
  Guestos.Netdev.deliver_rx nd frames;
  run engine 5;
  check_int "consumed" 3 (Workload.Bench_program.consumed bench);
  (* One cumulative ack for the batch. *)
  check_bool "acked" true (List.mem (7, 3) !acks);
  check_int "no strays" 0 (Workload.Bench_program.stray_frames bench)

let test_bench_receiver_role_sends_nothing () =
  let engine, _, stack, bench, dev_sent, _ = bench_fixture () in
  let c = conn ~id:1 () in
  Workload.Bench_program.add_stream bench ~stack ~tx:[] ~rx:[ c ];
  Workload.Bench_program.start bench;
  run engine 5;
  check_int "nothing transmitted" 0 (List.length !dev_sent)

let test_bench_stray_frames_counted () =
  let engine, nd, stack, bench, _, _ = bench_fixture () in
  Workload.Bench_program.add_stream bench ~stack ~tx:[] ~rx:[ conn ~id:1 () ];
  let stranger = conn ~id:999 () in
  Guestos.Netdev.deliver_rx nd [ Workload.Connection.make_frame stranger ];
  run engine 5;
  check_int "stray counted" 1 (Workload.Bench_program.stray_frames bench)

let suite =
  [
    ( "workload.connection",
      [
        Alcotest.test_case "window accounting" `Quick test_conn_window_accounting;
        Alcotest.test_case "frame sequence" `Quick test_conn_frames_sequence;
        Alcotest.test_case "in-order receive" `Quick test_conn_in_order_receive;
        Alcotest.test_case "integrity" `Quick test_conn_integrity_check;
        Alcotest.test_case "super-frames" `Quick test_conn_super_frames;
        Alcotest.test_case "reset" `Quick test_conn_reset;
      ] );
    ("workload.pattern", [ Alcotest.test_case "roles" `Quick test_pattern ]);
    ( "workload.bench_program",
      [
        Alcotest.test_case "fills windows" `Quick test_bench_fills_windows;
        Alcotest.test_case "balances connections" `Quick test_bench_balances_connections;
        Alcotest.test_case "credits refill" `Quick test_bench_credits_refill;
        Alcotest.test_case "rx consumes and acks" `Quick test_bench_rx_consumes_and_acks;
        Alcotest.test_case "receiver sends nothing" `Quick
          test_bench_receiver_role_sends_nothing;
        Alcotest.test_case "stray frames" `Quick test_bench_stray_frames_counted;
      ] );
  ]
