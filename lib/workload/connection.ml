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
  (* Send timestamps of in-flight sequence numbers, for latency. *)
  sent_at : Sim.Time.t Sim.Int_tbl.t;
  latency : Sim.Stats.Histogram.t;
}

let create ~id ~window ~payload_len ~src ~dst =
  if window <= 0 then invalid_arg "Connection.create: non-positive window";
  if payload_len <= 0 then invalid_arg "Connection.create: empty payload";
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
    sent_at = Sim.Int_tbl.create 64;
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

let payload_seed ~conn ~seq = (conn * 1_000_003) + seq + 1

let frame_with_seq ?now t ~seq =
  (match now with
  | Some time -> Sim.Int_tbl.replace t.sent_at seq time
  | None -> ());
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
    (match now with
    | Some time -> Sim.Int_tbl.replace t.sent_at seq time
    | None -> ());
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
    (match (now, Sim.Int_tbl.find_opt t.sent_at frame.Ethernet.Frame.seq) with
    | Some arrival, Some departure ->
        Sim.Int_tbl.remove t.sent_at frame.Ethernet.Frame.seq;
        Sim.Stats.Histogram.add t.latency (Sim.Time.diff arrival departure)
    | _ -> ());
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
  Sim.Int_tbl.reset t.sent_at;
  Sim.Stats.Histogram.reset t.latency
