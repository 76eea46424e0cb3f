type side = A | B

type in_flight = { mutable frame : Frame.t }

type direction = {
  mutable receiver : (Frame.t -> unit) option;
  (* Receiver sits at the destination side of this direction. *)
  mutable busy_until : Sim.Time.t;
  mutable frames : int;
  mutable bytes : int;
  (* Frames on the wire, in send order, and the one closure each arrival
     event runs. Arrival is [wire_free] plus a constant propagation
     delay and [wire_free] strictly increases, so the ring's head is
     always the frame whose arrival is firing. *)
  in_flight : in_flight Sim.Slot_ring.t;
  mutable arrive : unit -> unit;
}

type verdict = [ `Pass | `Drop | `Corrupt ]

type t = {
  engine : Sim.Engine.t;
  rate_bps : int;
  to_a : direction;
  to_b : direction;
  mutable tamper : (Frame.t -> verdict) option;
  mutable dropped : int;
  mutable corrupted : int;
}

let propagation = Sim.Time.ns 500

let no_arrival () = ()

let make_slot () = { frame = Frame.placeholder }

let[@cdna.hot] push_arrival dir frame =
  let s = Sim.Slot_ring.push dir.in_flight in
  s.frame <- frame

let[@cdna.hot] arrive dir () =
  let frame = (Sim.Slot_ring.pop dir.in_flight).frame in
  dir.frames <- dir.frames + 1;
  dir.bytes <- dir.bytes + frame.Frame.payload_len;
  match dir.receiver with Some f -> f frame | None -> ()

let create engine ?(rate_bps = 1_000_000_000) () =
  if rate_bps <= 0 then invalid_arg "Link.create: non-positive rate";
  let dir () =
    let d =
      {
        receiver = None;
        busy_until = Sim.Time.zero;
        frames = 0;
        bytes = 0;
        in_flight = Sim.Slot_ring.create make_slot;
        arrive = no_arrival;
      }
    in
    d.arrive <- arrive d;
    d
  in
  {
    engine;
    rate_bps;
    to_a = dir ();
    to_b = dir ();
    tamper = None;
    dropped = 0;
    corrupted = 0;
  }

let rate_bps t = t.rate_bps

let attach t side f =
  match side with
  | A -> t.to_a.receiver <- Some f
  | B -> t.to_b.receiver <- Some f

let direction_from t = function A -> t.to_b | B -> t.to_a

let set_tamper t f = t.tamper <- f

(* A corrupted frame keeps its size and headers (so demux and timing are
   unchanged) but its payload no longer matches: the generator seed is
   perturbed, and any materialized bytes get one bit flipped, so both
   [Frame.data_valid] and [Frame.payload_crc] expose the damage. *)
let corrupt frame =
  let data =
    match frame.Frame.data with
    | None -> None
    | Some d ->
        let d = Bytes.copy d in
        if Bytes.length d > 0 then
          Bytes.set d 0 (Char.chr (Char.code (Bytes.get d 0) lxor 0x01));
        Some d
  in
  { frame with Frame.payload_seed = frame.Frame.payload_seed lxor 0x5a5a; data }

let send t ~from frame ~on_wire_free =
  let dir = direction_from t from in
  let now = Sim.Engine.now t.engine in
  let start = Sim.Time.max now dir.busy_until in
  let ser = Sim.Time.bits_time ~bits:(Frame.wire_bits frame) ~rate_bps:t.rate_bps in
  let wire_free = Sim.Time.add start ser in
  dir.busy_until <- wire_free;
  Sim.Engine.schedule_at t.engine wire_free on_wire_free;
  (* Tampering happens "on the wire": the frame still serializes (the
     sender paid the wire time either way), only delivery changes. *)
  let verdict =
    match t.tamper with None -> `Pass | Some f -> f frame
  in
  match verdict with
  | `Drop -> t.dropped <- t.dropped + 1
  | (`Pass | `Corrupt) as v ->
      let frame =
        match v with
        | `Corrupt ->
            t.corrupted <- t.corrupted + 1;
            corrupt frame
        | `Pass -> frame
      in
      push_arrival dir frame;
      Sim.Engine.schedule_at t.engine
        (Sim.Time.add wire_free propagation)
        dir.arrive

let busy t ~from =
  let dir = direction_from t from in
  Sim.Time.compare (Sim.Engine.now t.engine) dir.busy_until < 0

let delivered t side =
  let dir = match side with A -> t.to_a | B -> t.to_b in
  (dir.frames, dir.bytes)

let dropped t = t.dropped
let corrupted t = t.corrupted
