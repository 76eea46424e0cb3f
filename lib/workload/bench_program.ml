type stream = {
  stack : Guestos.Net_stack.t;
  tx_conns : Connection.t array;  (* windows this program keeps full *)
  mutable rr : int; (* round-robin refill pointer, for balance *)
  mutable refill_scheduled : bool;
  pacer : Pattern.Throttle.t; (* at most one refill per interval *)
}

type t = {
  engine : Sim.Engine.t;
  post_user : cost:Sim.Time.t -> (unit -> unit) -> unit;
  costs : Guestos.Os_costs.t;
  ack : Connection.t -> int -> unit;
  gso_segments : int;
  mutable streams : stream list;
  by_flow : Connection.t Sim.Int_tbl.t;
  (* One receive batch's acks, reused across batches: entries
     [0, acks_n) hold distinct flow ids in ascending order, with the
     connection and the segments accepted in the batch. *)
  mutable ack_flow : int array;
  mutable ack_conn : Connection.t array;
  mutable ack_segs : int array;
  mutable acks_n : int;
  mutable consumed : int;
  mutable stray : int;
}

let min_refill_interval = Sim.Time.us 80

let create engine ?(gso_segments = 1) ~post_user ~costs ~ack () =
  if gso_segments < 1 then invalid_arg "Bench_program.create: gso_segments";
  {
    engine;
    post_user;
    costs;
    ack;
    gso_segments;
    streams = [];
    by_flow = Sim.Int_tbl.create 64;
    ack_flow = [||];
    ack_conn = [||];
    ack_segs = [||];
    acks_n = 0;
    consumed = 0;
    stray = 0;
  }

(* Fill stream windows up to the stack's current capacity, round-robin
   across connections so bandwidth stays balanced. Refills are paced to at
   most one per [min_refill_interval] so acknowledgements batch the way
   they do under a real event loop under load. *)
let rec refill t s =
  if Array.length s.tx_conns > 0 && not s.refill_scheduled then begin
    let now = Sim.Engine.now t.engine in
    if not (Pattern.Throttle.ready s.pacer ~now) then begin
      s.refill_scheduled <- true;
      Sim.Engine.schedule t.engine
        ~delay:(Pattern.Throttle.wait s.pacer ~now)
        (fun () ->
          s.refill_scheduled <- false;
          refill t s)
    end
    else refill_now t s
  end

and refill_now t s =
  if not s.refill_scheduled then begin
    let capacity = Guestos.Net_stack.capacity s.stack in
    let want =
      Array.fold_left (fun acc c -> acc + Connection.credits c) 0 s.tx_conns
    in
    let k = Int.min capacity want in
    if k > 0 then begin
      s.refill_scheduled <- true;
      Pattern.Throttle.mark s.pacer ~now:(Sim.Engine.now t.engine);
      let cost =
        Sim.Time.add t.costs.Guestos.Os_costs.app_wakeup
          (Sim.Time.mul_int t.costs.Guestos.Os_costs.app_per_pkt k)
      in
      t.post_user ~cost (fun () ->
          s.refill_scheduled <- false;
          let frames = ref [] in
          let remaining = ref k in
          let n = Array.length s.tx_conns in
          let idle_rounds = ref 0 in
          while !remaining > 0 && !idle_rounds < n do
            let c = s.tx_conns.(s.rr) in
            s.rr <- (s.rr + 1) mod n;
            let want = Int.min !remaining t.gso_segments in
            let got = Connection.take_credits c want in
            if got > 0 then begin
              frames :=
                Connection.make_frame ~now:(Sim.Engine.now t.engine)
                  ~segments:got c
                :: !frames;
              remaining := !remaining - got;
              idle_rounds := 0
            end
            else incr idle_rounds
          done;
          let frames = List.rev !frames in
          if frames <> [] then Guestos.Net_stack.send s.stack frames;
          (* More credits may have arrived while we ran. *)
          refill t s)
    end
  end

(* Index of [flow]'s entry in the batch buffer, or where it belongs. *)
let rec ack_position t flow j =
  if j < t.acks_n && t.ack_flow.(j) < flow then ack_position t flow (j + 1)
  else j

(* Add [segs] to [flow]'s entry in the batch buffer, inserting the entry
   at its sorted position on the flow's first ack of the batch. *)
let add_ack t flow conn segs =
  let n = t.acks_n in
  let j = ack_position t flow 0 in
  if j < n && t.ack_flow.(j) = flow then t.ack_segs.(j) <- t.ack_segs.(j) + segs
  else begin
    if n = Array.length t.ack_flow then begin
      let cap = Int.max 8 (2 * n) in
      let grow a fill =
        let b = Array.make cap fill in
        Array.blit a 0 b 0 n;
        b
      in
      t.ack_flow <- grow t.ack_flow 0;
      t.ack_conn <- grow t.ack_conn conn;
      t.ack_segs <- grow t.ack_segs 0
    end;
    Array.blit t.ack_flow j t.ack_flow (j + 1) (n - j);
    Array.blit t.ack_conn j t.ack_conn (j + 1) (n - j);
    Array.blit t.ack_segs j t.ack_segs (j + 1) (n - j);
    t.ack_flow.(j) <- flow;
    t.ack_conn.(j) <- conn;
    t.ack_segs.(j) <- segs;
    t.acks_n <- n + 1
  end

let on_rx t frames =
  let n = List.length frames in
  let cost =
    Sim.Time.add t.costs.Guestos.Os_costs.app_wakeup
      (Sim.Time.mul_int t.costs.Guestos.Os_costs.app_per_pkt n)
  in
  t.post_user ~cost (fun () ->
      t.acks_n <- 0;
      List.iter
        (fun frame ->
          match Sim.Int_tbl.find_opt t.by_flow frame.Ethernet.Frame.flow with
          | Some conn -> (
              t.consumed <- t.consumed + frame.Ethernet.Frame.segments;
              match
                Connection.record_received ~now:(Sim.Engine.now t.engine) conn
                  frame
              with
              | `Accepted ->
                  add_ack t frame.Ethernet.Frame.flow conn
                    frame.Ethernet.Frame.segments
              | `Rejected -> ())
          | None -> t.stray <- t.stray + 1)
        frames;
      (* Ack flows in ascending flow-id order: the callback schedules
         events, so fan-out order must not depend on arrival order. The
         callback must not run a receive batch itself, which would reuse
         the buffer under this loop. *)
      for i = 0 to t.acks_n - 1 do
        t.ack t.ack_conn.(i) t.ack_segs.(i)
      done)

let add_stream t ~stack ~tx ~rx =
  let s =
    {
      stack;
      tx_conns = Array.of_list tx;
      rr = 0;
      refill_scheduled = false;
      pacer = Pattern.Throttle.create ~interval:min_refill_interval;
    }
  in
  List.iter
    (fun c -> Sim.Int_tbl.replace t.by_flow (Connection.id c) c)
    (tx @ rx);
  t.streams <- t.streams @ [ s ];
  Guestos.Net_stack.set_rx_handler stack (fun frames -> on_rx t frames);
  Guestos.Net_stack.set_writable_hook stack (fun () -> refill t s)

let start t = List.iter (fun s -> refill t s) t.streams

let rec sends_on conns id i =
  i < Array.length conns
  && (Connection.id conns.(i) = id || sends_on conns id (i + 1))

(* Top up every stream that sends on connection [id]. *)
let rec refill_senders t id = function
  | [] -> ()
  | s :: rest ->
      if sends_on s.tx_conns id 0 then refill t s;
      refill_senders t id rest

let on_credit t conn n =
  Connection.add_credits conn n;
  refill_senders t (Connection.id conn) t.streams

let consumed t = t.consumed

let stray_frames t = t.stray
