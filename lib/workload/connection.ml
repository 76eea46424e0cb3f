type t = {
  id : int;
  window : int;
  payload_len : int;
  src : Ethernet.Mac_addr.t;
  dst : Ethernet.Mac_addr.t;
  mutable in_flight : int;
  mutable next_seq : int;
  mutable expected_rx : int;
  mutable sent : int;
  mutable received : int;
  mutable rejected : int;
  mutable integrity_failures : int;
  (* Send stamps of in-flight sequence numbers, for latency: a ring of
     a power-of-two size at or above [window]. Slot [seq land mask] holds
     the last stamped seq there ([-1] if none) and its send time.

     The ring loses no stamp a per-seq table would have kept. A stamp is
     looked up only for the accepted in-order seq [expected_rx], and no
     other seq of that slot is stamped between its last send and then.
     A larger one would be at least [expected_rx + window], which neither
     sender can have sent yet: [Bench_program] takes a credit per
     segment and gets it back only when the segment is accepted, and
     [Peer.can_send] keeps [next - base < window] with [base] never ahead
     of [expected_rx]. A smaller one would be at most
     [expected_rx - window], below the sender's base ever since it last
     sent [expected_rx], and go-back-N resends only from the base up. A
     resend of [expected_rx] itself overwrites its own slot, as the
     table's [replace] did. *)
  sent_seq : int array;
  sent_time : Sim.Time.t array;
  latency : Sim.Stats.Histogram.t;
}

let create ~id ~window ~payload_len ~src ~dst =
  if window <= 0 then invalid_arg "Connection.create: non-positive window";
  if payload_len <= 0 then invalid_arg "Connection.create: empty payload";
  let size = 1 lsl (Sim.Stats.log2_floor (window - 1) + 1) in
  {
    id;
    window;
    payload_len;
    src;
    dst;
    in_flight = 0;
    next_seq = 0;
    expected_rx = 0;
    sent = 0;
    received = 0;
    rejected = 0;
    integrity_failures = 0;
    sent_seq = Array.make size (-1);
    sent_time = Array.make size Sim.Time.zero;
    latency = Sim.Stats.Histogram.create ();
  }

let id t = t.id
let window t = t.window
let credits t = Int.max 0 (t.window - t.in_flight)

let take_credits t n =
  let k = Int.min n (credits t) in
  t.in_flight <- t.in_flight + k;
  k

let add_credits t n = t.in_flight <- Int.max 0 (t.in_flight - n)

let slot t seq = seq land (Array.length t.sent_seq - 1)

let stamp t seq = function
  | Some time ->
      let slot = slot t seq in
      t.sent_seq.(slot) <- seq;
      t.sent_time.(slot) <- time
  | None -> ()

let payload_seed ~conn ~seq = (conn * 1_000_003) + seq + 1

let frame_with_seq ?now t ~seq =
  stamp t seq now;
  Ethernet.Frame.make ~src:t.src ~dst:t.dst ~kind:Ethernet.Frame.Data
    ~flow:t.id ~seq ~payload_len:t.payload_len
    ~payload_seed:(payload_seed ~conn:t.id ~seq)
    ()

let make_frame ?now ?(segments = 1) t =
  let seq = t.next_seq in
  t.next_seq <- seq + segments;
  t.sent <- t.sent + segments;
  if segments = 1 then frame_with_seq ?now t ~seq
  else begin
    stamp t seq now;
    Ethernet.Frame.make ~src:t.src ~dst:t.dst ~kind:Ethernet.Frame.Data
      ~flow:t.id ~seq ~segments
      ~payload_len:(t.payload_len * segments)
      ~payload_seed:(payload_seed ~conn:t.id ~seq)
      ()
  end

let record_received ?now t frame =
  if frame.Ethernet.Frame.seq = t.expected_rx then begin
    t.expected_rx <- t.expected_rx + frame.Ethernet.Frame.segments;
    t.received <- t.received + frame.Ethernet.Frame.segments;
    if not (Ethernet.Frame.data_valid frame) then
      t.integrity_failures <- t.integrity_failures + 1;
    (match now with
    | Some arrival ->
        let seq = frame.Ethernet.Frame.seq in
        let slot = slot t seq in
        if t.sent_seq.(slot) = seq then begin
          t.sent_seq.(slot) <- -1;
          Sim.Stats.Histogram.add t.latency
            (Sim.Time.diff arrival t.sent_time.(slot))
        end
    | None -> ());
    `Accepted
  end
  else begin
    t.rejected <- t.rejected + 1;
    `Rejected
  end

let latency t = t.latency

let sent t = t.sent
let received t = t.received
let rejected t = t.rejected
let integrity_failures t = t.integrity_failures

let reset_counters t =
  t.sent <- 0;
  t.received <- 0;
  t.rejected <- 0;
  t.integrity_failures <- 0;
  Array.fill t.sent_seq 0 (Array.length t.sent_seq) (-1);
  Sim.Stats.Histogram.reset t.latency
