type t = {
  post_kernel : cost:Sim.Time.t -> (unit -> unit) -> unit;
  costs : Os_costs.t;
  netdev : Netdev.t;
  backlog : Ethernet.Frame.t Sim.Fifo.t;
  mutable rx_handler : Ethernet.Frame.t list -> unit;
  mutable writable_hook : unit -> unit;
  mutable was_full : bool;
  mutable sent : int;
  mutable received : int;
}

let drain t =
  (* Push backlog into the device as space allows; driver cost is charged
     by the device, stack cost was charged at [send]. *)
  let space = Netdev.tx_space t.netdev in
  if space > 0 && not (Sim.Fifo.is_empty t.backlog) then begin
    let n = Int.min space (Sim.Fifo.length t.backlog) in
    let batch = List.init n (fun _ -> Sim.Fifo.pop t.backlog) in
    t.sent <- t.sent + n;
    Netdev.send t.netdev batch
  end;
  if Sim.Fifo.is_empty t.backlog && t.was_full then begin
    t.was_full <- false;
    t.writable_hook ()
  end

let create ~post_kernel ~costs ~netdev =
  let t =
    {
      post_kernel;
      costs;
      netdev;
      backlog = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder;
      rx_handler = (fun _ -> ());
      writable_hook = (fun () -> ());
      was_full = false;
      sent = 0;
      received = 0;
    }
  in
  Netdev.set_tx_done_handler netdev (fun _n -> drain t);
  Netdev.set_writable_hook netdev (fun () ->
      drain t;
      (* Propagate upward even if we never backlogged: the application may
         be waiting for the device to come up. *)
      if Sim.Fifo.is_empty t.backlog then t.writable_hook ());
  Netdev.set_rx_handler netdev (fun frames ->
      let n = List.length frames in
      let cost =
        Sim.Time.add costs.Os_costs.stack_wakeup_fixed
          (Sim.Time.mul_int costs.Os_costs.stack_rx_per_pkt n)
      in
      t.post_kernel ~cost (fun () ->
          t.received <- t.received + n;
          t.rx_handler frames));
  t

let send t frames =
  let n = List.length frames in
  if n > 0 then begin
    let cost =
      Sim.Time.add t.costs.Os_costs.stack_wakeup_fixed
        (Sim.Time.mul_int t.costs.Os_costs.stack_tx_per_pkt n)
    in
    t.post_kernel ~cost (fun () ->
        List.iter (Sim.Fifo.push t.backlog) frames;
        if Sim.Fifo.length t.backlog > Netdev.tx_space t.netdev then
          t.was_full <- true;
        drain t)
  end

let capacity t =
  Int.max 0 (Netdev.tx_space t.netdev - Sim.Fifo.length t.backlog)
let set_rx_handler t f = t.rx_handler <- f
let set_writable_hook t f = t.writable_hook <- f
let frames_sent t = t.sent
let frames_received t = t.received
let backlog t = Sim.Fifo.length t.backlog
