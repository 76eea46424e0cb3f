type sink = {
  s_conn : Workload.Connection.t;
  s_credit : int -> unit;
  mutable s_pending : int;
  mutable s_flush_armed : bool;
  mutable s_flush : unit -> unit; (* the ack-window timer, built once *)
}

(* Go-back-N sender with AIMD congestion control for one guest-receive
   connection: the congestion window halves (to one segment, with the
   slow-start threshold at half the flight size) on timeout and grows by
   slow start / congestion avoidance on acknowledgements — enough TCP to
   reproduce goodput behaviour under receive-side overload. *)
type source = {
  src_conn : Workload.Connection.t;
  mutable base : int; (* lowest unacknowledged sequence number *)
  mutable next : int; (* next sequence number to transmit *)
  mutable cwnd : float;
  (* [min window (max 1 (int_of_float cwnd))], kept in step with [cwnd]
     by [set_cwnd] so the send check does no float work. *)
  mutable window : int;
  mutable ssthresh : float;
  mutable rto_armed : bool;
  mutable armed_base : int;
  mutable on_rto : unit -> unit; (* the retransmission timer, built once *)
}

type t = {
  engine : Sim.Engine.t;
  link : Ethernet.Link.t;
  mac : Ethernet.Mac_addr.t;
  rng : Sim.Rng.t option;
  materialize : bool;
  sinks : sink Sim.Int_tbl.t;
  mutable sources : source array;
  by_conn : source Sim.Int_tbl.t;
  mutable rr : int;
  mutable sending : bool;
  mutable on_wire_free : unit -> unit;
  mutable sunk : int;
  mutable sourced : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable ignored : int;
}

let no_timer () = ()

let set_cwnd s cwnd =
  s.cwnd <- cwnd;
  s.window <-
    Int.min (Workload.Connection.window s.src_conn) (Int.max 1 (int_of_float cwnd))

let in_flight s = s.next - s.base
let can_send s = in_flight s < s.window

(* The first source at or after [i] (round robin) with an open window,
   or -1. [i] is a source index, so one wrap check per step keeps it in
   range. *)
let rec pick_source t i remaining =
  if remaining = 0 then -1
  else if can_send t.sources.(i) then i
  else
    let i = i + 1 in
    pick_source t (if i = Array.length t.sources then 0 else i) (remaining - 1)

(* Retransmission timer: if the window base has not advanced within one
   RTO while data is outstanding, go back to the base and resend the
   whole window (go-back-N). *)
(* Reverse-path wire plus the delayed-ack coalescing window, and the
   retransmission timeout. *)
let ack_delay = Sim.Time.us 60
let rto = Sim.Time.ms 4

let rec arm_rto t s =
  if not s.rto_armed then begin
    s.rto_armed <- true;
    s.armed_base <- s.base;
    Sim.Engine.schedule t.engine ~delay:rto s.on_rto
  end

and rto_expired t s () =
  s.rto_armed <- false;
  if in_flight s > 0 then begin
    if s.base = s.armed_base then begin
      (* Timeout: everything past [base] is presumed lost; back off
         multiplicatively and slow-start again. *)
      t.timeouts <- t.timeouts + 1;
      t.retransmissions <- t.retransmissions + in_flight s;
      s.ssthresh <- Float.max 2. (float_of_int (in_flight s) /. 2.);
      set_cwnd s 1.;
      s.next <- s.base
    end;
    arm_rto t s;
    pump t
  end

(* Keep the wire busy: one frame in flight on our transmitter at a time,
   round-robin over connections with open windows. *)
and pump t =
  if (not t.sending) && Array.length t.sources > 0 then begin
    let n = Array.length t.sources in
    let i = pick_source t t.rr n in
    if i >= 0 then begin
      t.rr <- (if i + 1 = n then 0 else i + 1);
      let s = t.sources.(i) in
      let frame =
        Workload.Connection.frame_with_seq
          ~now:(Sim.Engine.now t.engine) s.src_conn ~seq:s.next
      in
      let frame =
        if t.materialize then Ethernet.Frame.with_data frame else frame
      in
      s.next <- s.next + 1;
      t.sourced <- t.sourced + 1;
      arm_rto t s;
      t.sending <- true;
      Ethernet.Link.send t.link ~from:Ethernet.Link.B frame
        ~on_wire_free:t.on_wire_free
    end
  end

let wire_free t () =
  t.sending <- false;
  pump t

let flush sink () =
  sink.s_flush_armed <- false;
  let n = sink.s_pending in
  sink.s_pending <- 0;
  if n > 0 then sink.s_credit n

let receive t frame =
  if not (Ethernet.Mac_addr.equal frame.Ethernet.Frame.dst t.mac) then
    t.ignored <- t.ignored + 1
  else
    match Sim.Int_tbl.find_opt t.sinks frame.Ethernet.Frame.flow with
    | Some sink -> (
        match
          Workload.Connection.record_received
            ~now:(Sim.Engine.now t.engine) sink.s_conn frame
        with
        | `Rejected -> ()
        | `Accepted ->
            t.sunk <- t.sunk + frame.Ethernet.Frame.segments;
            (* Coalesce acknowledgements, as TCP's delayed cumulative
               acks do: one credit delivery per connection per ack
               window. Super-frames acknowledge all their segments. *)
            sink.s_pending <- sink.s_pending + frame.Ethernet.Frame.segments;
            if not sink.s_flush_armed then begin
              sink.s_flush_armed <- true;
              let delay =
                match t.rng with
                | None -> ack_delay
                | Some rng ->
                    (* +/-25% jitter decorrelates the flows' ack
                       clocks, as real network timing noise does. *)
                    let spread = Sim.Time.div_int ack_delay 2 in
                    Sim.Time.add
                      (Sim.Time.diff ack_delay (Sim.Time.div_int spread 2))
                      (Sim.Rng.int rng (Int.max 1 spread))
              in
              Sim.Engine.schedule t.engine ~delay sink.s_flush
            end)
    | None -> t.ignored <- t.ignored + 1

let create engine ~link ~mac ?rng ?(materialize = false) () =
  let t =
    {
      engine;
      link;
      mac;
      rng;
      materialize;
      sinks = Sim.Int_tbl.create 64;
      sources = [||];
      by_conn = Sim.Int_tbl.create 64;
      rr = 0;
      sending = false;
      on_wire_free = no_timer;
      sunk = 0;
      sourced = 0;
      retransmissions = 0;
      timeouts = 0;
      ignored = 0;
    }
  in
  t.on_wire_free <- wire_free t;
  Ethernet.Link.attach link Ethernet.Link.B (receive t);
  t

let mac t = t.mac

let add_sink t conn ~credit =
  let sink =
    {
      s_conn = conn;
      s_credit = credit;
      s_pending = 0;
      s_flush_armed = false;
      s_flush = no_timer;
    }
  in
  sink.s_flush <- flush sink;
  Sim.Int_tbl.replace t.sinks (Workload.Connection.id conn) sink

let add_source t ?(from_seq = 0) conn =
  let s =
    {
      src_conn = conn;
      base = from_seq;
      next = from_seq;
      cwnd = 0.;
      window = 0;
      ssthresh = float_of_int (Workload.Connection.window conn);
      rto_armed = false;
      armed_base = 0;
      on_rto = no_timer;
    }
  in
  set_cwnd s 2.;
  s.on_rto <- rto_expired t s;
  t.sources <- Array.append t.sources [| s |];
  Sim.Int_tbl.replace t.by_conn (Workload.Connection.id conn) s

let source_position t conn =
  Option.map
    (fun s -> (s.base, s.next))
    (Sim.Int_tbl.find_opt t.by_conn (Workload.Connection.id conn))

let start t = pump t

let on_ack t conn n =
  match Sim.Int_tbl.find_opt t.by_conn (Workload.Connection.id conn) with
  | None -> ()
  | Some s ->
      s.base <- Int.min s.next (s.base + n);
      (* Window growth: slow start below the threshold, additive
         increase above it. *)
      let n_f = float_of_int n in
      let cwnd =
        if s.cwnd < s.ssthresh then s.cwnd +. n_f
        else s.cwnd +. (n_f /. Float.max 1. s.cwnd)
      in
      let cap = float_of_int (Workload.Connection.window s.src_conn) in
      set_cwnd s (if cwnd > cap then cap else cwnd);
      pump t

let kick t = pump t
let retransmissions t = t.retransmissions
