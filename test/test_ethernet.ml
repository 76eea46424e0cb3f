(* Tests for the Ethernet substrate: MACs, CRC-32, frames and links. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---------- Mac_addr ---------- *)

let test_mac_make () =
  let a = Ethernet.Mac_addr.make 1 and b = Ethernet.Mac_addr.make 2 in
  check_bool "distinct" false (Ethernet.Mac_addr.equal a b);
  check_bool "self equal" true (Ethernet.Mac_addr.equal a a);
  check_bool "unicast" false (Ethernet.Mac_addr.is_multicast a);
  check_bool "not broadcast" false (Ethernet.Mac_addr.is_broadcast a)

let test_mac_broadcast () =
  check_bool "broadcast is broadcast" true
    (Ethernet.Mac_addr.is_broadcast Ethernet.Mac_addr.broadcast);
  check_bool "broadcast is multicast" true
    (Ethernet.Mac_addr.is_multicast Ethernet.Mac_addr.broadcast)

let test_mac_string () =
  check Alcotest.string "format" "02:00:00:00:00:05"
    (Ethernet.Mac_addr.to_string (Ethernet.Mac_addr.make 5))

let test_mac_range () =
  Alcotest.check_raises "range" (Invalid_argument "Mac_addr.make: index out of range")
    (fun () -> ignore (Ethernet.Mac_addr.make (-1)))

(* ---------- Crc32 ---------- *)

let test_crc_known_value () =
  (* CRC-32("123456789") = 0xCBF43926, the standard check value. *)
  check_int "check value" 0xCBF43926
    (Ethernet.Crc32.digest (Bytes.of_string "123456789"))

let test_crc_detects_change () =
  let b = Bytes.of_string "some payload bytes" in
  let c1 = Ethernet.Crc32.digest b in
  Bytes.set b 3 'X';
  check_bool "changed" true (c1 <> Ethernet.Crc32.digest b)

let test_crc_sub () =
  let b = Bytes.of_string "xx123456789yy" in
  check_int "slice" 0xCBF43926 (Ethernet.Crc32.digest_sub b ~pos:2 ~len:9);
  Alcotest.check_raises "bounds" (Invalid_argument "Crc32.digest_sub: bad bounds")
    (fun () -> ignore (Ethernet.Crc32.digest_sub b ~pos:10 ~len:9))

(* ---------- Frame ---------- *)

let mk ?(len = 1500) ?(seed = 7) () =
  Ethernet.Frame.make
    ~src:(Ethernet.Mac_addr.make 1)
    ~dst:(Ethernet.Mac_addr.make 2)
    ~kind:Ethernet.Frame.Data ~flow:1 ~seq:0 ~payload_len:len ~payload_seed:seed
    ()

let test_frame_wire_accounting () =
  let f = mk () in
  check_int "mtu frame" 1518 (Ethernet.Frame.wire_bytes f);
  check_int "wire bits incl preamble+ifg" ((1518 + 20) * 8)
    (Ethernet.Frame.wire_bits f);
  (* Minimum frame padding. *)
  let tiny = mk ~len:10 () in
  check_int "padded to 64" 64 (Ethernet.Frame.wire_bytes tiny)

let test_frame_materialization_deterministic () =
  let a = Ethernet.Frame.materialize_payload ~seed:9 ~len:100 in
  let b = Ethernet.Frame.materialize_payload ~seed:9 ~len:100 in
  let c = Ethernet.Frame.materialize_payload ~seed:10 ~len:100 in
  check_bool "same seed same bytes" true (Bytes.equal a b);
  check_bool "different seed different bytes" false (Bytes.equal a c)

let test_frame_data_validity () =
  let f = Ethernet.Frame.with_data (mk ()) in
  check_bool "valid" true (Ethernet.Frame.data_valid f);
  let corrupted =
    match f.Ethernet.Frame.data with
    | Some d ->
        let d = Bytes.copy d in
        Bytes.set d 0 (Char.chr (Char.code (Bytes.get d 0) lxor 0xFF));
        { f with Ethernet.Frame.data = Some d }
    | None -> assert false
  in
  check_bool "corruption detected" false (Ethernet.Frame.data_valid corrupted);
  check_bool "spec-only trivially valid" true (Ethernet.Frame.data_valid (mk ()))

let test_frame_super_frame_accounting () =
  let f =
    Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
      ~dst:(Ethernet.Mac_addr.make 2) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
      ~segments:4 ~payload_len:6000 ~payload_seed:0 ()
  in
  (* 4 segments: 4 headers + 6000 payload bytes on the wire, plus 4
     preamble/IFG allocations. *)
  check_int "wire bytes" ((4 * 18) + 6000) (Ethernet.Frame.wire_bytes f);
  check_int "wire bits" (((4 * 18) + 6000 + (4 * 20)) * 8)
    (Ethernet.Frame.wire_bits f);
  (* Exactly four 1500-byte frames' worth of wire time. *)
  let single = Ethernet.Frame.wire_bits (mk ()) in
  check_int "equals 4 singles" (4 * single) (Ethernet.Frame.wire_bits f);
  Alcotest.check_raises "segments positive"
    (Invalid_argument "Frame.make: segments must be positive") (fun () ->
      ignore
        (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
           ~dst:(Ethernet.Mac_addr.make 2) ~kind:Ethernet.Frame.Data ~flow:0
           ~seq:0 ~segments:0 ~payload_len:100 ~payload_seed:0 ()))

let test_frame_rejects_bad_length () =
  Alcotest.check_raises "jumbo" (Invalid_argument "Frame.make: payload length out of range")
    (fun () -> ignore (mk ~len:9001 ()))

(* ---------- Link ---------- *)

let test_link_delivery_and_timing () =
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine () in
  let got = ref None and wire_free_at = ref 0 and arrival_at = ref 0 in
  Ethernet.Link.attach link Ethernet.Link.B (fun f ->
      got := Some f;
      arrival_at := Sim.Engine.now engine);
  Ethernet.Link.send link ~from:Ethernet.Link.A (mk ()) ~on_wire_free:(fun () ->
      wire_free_at := Sim.Engine.now engine);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "delivered" true (!got <> None);
  (* 1538 wire bytes at 1 Gb/s = 12304 ns serialization. *)
  check_int "serialization" 12304 !wire_free_at;
  check_int "arrival = serialization + propagation" (12304 + 500) !arrival_at

let test_link_back_to_back () =
  (* Second frame is delayed by the first one's serialization. *)
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine () in
  let arrivals = ref [] in
  Ethernet.Link.attach link Ethernet.Link.B (fun _ ->
      arrivals := Sim.Engine.now engine :: !arrivals);
  Ethernet.Link.send link ~from:Ethernet.Link.A (mk ()) ~on_wire_free:ignore;
  Ethernet.Link.send link ~from:Ethernet.Link.A (mk ()) ~on_wire_free:ignore;
  ignore (Sim.Engine.run_to_completion engine);
  match List.rev !arrivals with
  | [ a; b ] -> check_int "full serialization apart" 12304 (b - a)
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_full_duplex () =
  (* Opposite directions do not contend. *)
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine () in
  let to_b = ref 0 and to_a = ref 0 in
  Ethernet.Link.attach link Ethernet.Link.B (fun _ -> to_b := Sim.Engine.now engine);
  Ethernet.Link.attach link Ethernet.Link.A (fun _ -> to_a := Sim.Engine.now engine);
  Ethernet.Link.send link ~from:Ethernet.Link.A (mk ()) ~on_wire_free:ignore;
  Ethernet.Link.send link ~from:Ethernet.Link.B (mk ()) ~on_wire_free:ignore;
  ignore (Sim.Engine.run_to_completion engine);
  check_int "same arrival A->B" 12804 !to_b;
  check_int "same arrival B->A" 12804 !to_a

let test_link_counters () =
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine () in
  Ethernet.Link.attach link Ethernet.Link.B (fun _ -> ());
  Ethernet.Link.send link ~from:Ethernet.Link.A (mk ()) ~on_wire_free:ignore;
  ignore (Sim.Engine.run_to_completion engine);
  let frames, bytes = Ethernet.Link.delivered link Ethernet.Link.B in
  check_int "frames" 1 frames;
  check_int "payload bytes" 1500 bytes

let test_link_rate_override () =
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine ~rate_bps:100_000_000 () in
  let free_at = ref 0 in
  Ethernet.Link.send link ~from:Ethernet.Link.A (mk ())
    ~on_wire_free:(fun () -> free_at := Sim.Engine.now engine);
  ignore (Sim.Engine.run_to_completion engine);
  check_int "10x slower" 123040 !free_at

let test_link_tamper_sequence () =
  (* Pass, Drop, Corrupt, Pass: every frame occupies the wire, the
     dropped one is never delivered, and the others arrive in order at
     their serialization time plus propagation. *)
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine () in
  let verdicts = ref [ `Pass; `Drop; `Corrupt; `Pass ] in
  Ethernet.Link.set_tamper link
    (Some
       (fun _ ->
         match !verdicts with
         | v :: rest ->
             verdicts := rest;
             v
         | [] -> `Pass));
  let arrivals = ref [] and freed = ref [] in
  Ethernet.Link.attach link Ethernet.Link.B (fun f ->
      arrivals :=
        (f.Ethernet.Frame.payload_seed, Sim.Engine.now engine) :: !arrivals);
  List.iter
    (fun seed ->
      Ethernet.Link.send link ~from:Ethernet.Link.A (mk ~seed ())
        ~on_wire_free:(fun () -> freed := Sim.Engine.now engine :: !freed))
    [ 1; 2; 3; 4 ];
  ignore (Sim.Engine.run_to_completion engine);
  let ser = 12304 and prop = 500 in
  check
    Alcotest.(list int)
    "wire frees" [ ser; 2 * ser; 3 * ser; 4 * ser ] (List.rev !freed);
  check
    Alcotest.(list (pair int int))
    "deliveries"
    [ (1, ser + prop); (3 lxor 0x5a5a, (3 * ser) + prop); (4, (4 * ser) + prop) ]
    (List.rev !arrivals);
  check_int "dropped" 1 (Ethernet.Link.dropped link);
  check_int "corrupted" 1 (Ethernet.Link.corrupted link);
  check_int "delivered" 3 (fst (Ethernet.Link.delivered link Ethernet.Link.B))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "ethernet.mac",
      [
        Alcotest.test_case "make" `Quick test_mac_make;
        Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
        Alcotest.test_case "to_string" `Quick test_mac_string;
        Alcotest.test_case "range" `Quick test_mac_range;
      ] );
    ( "ethernet.crc32",
      [
        Alcotest.test_case "known value" `Quick test_crc_known_value;
        Alcotest.test_case "detects change" `Quick test_crc_detects_change;
        Alcotest.test_case "sub-range" `Quick test_crc_sub;
      ] );
    ( "ethernet.frame",
      [
        Alcotest.test_case "wire accounting" `Quick test_frame_wire_accounting;
        Alcotest.test_case "deterministic payload" `Quick
          test_frame_materialization_deterministic;
        Alcotest.test_case "data validity" `Quick test_frame_data_validity;
        Alcotest.test_case "bad length" `Quick test_frame_rejects_bad_length;
        Alcotest.test_case "super-frame accounting" `Quick
          test_frame_super_frame_accounting;
      ] );
    ( "ethernet.link",
      [
        Alcotest.test_case "delivery and timing" `Quick test_link_delivery_and_timing;
        Alcotest.test_case "back to back" `Quick test_link_back_to_back;
        Alcotest.test_case "full duplex" `Quick test_link_full_duplex;
        Alcotest.test_case "counters" `Quick test_link_counters;
        Alcotest.test_case "rate override" `Quick test_link_rate_override;
        Alcotest.test_case "tamper sequence" `Quick test_link_tamper_sequence;
      ] );
  ]
