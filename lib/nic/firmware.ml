let mbox_tx_ring_slots = 0
let mbox_tx_ring_base = 1
let mbox_rx_ring_slots = 2
let mbox_rx_ring_base = 3
let mbox_status_addr = 4
let mbox_tx_prod = 5
let mbox_rx_prod = 6

type t = {
  engine : Sim.Engine.t;
  dp : Dp.t;
  process_cost : Sim.Time.t;
  mutable mailbox : Mailbox.t option; (* tied after creation (cyclic dep) *)
  (* Firmware scratch: last ring geometry written per context. *)
  tx_slots : int array;
  rx_slots : int array;
  mutable running : bool;
  mutable processed : int;
}

let mailbox t = Option.get t.mailbox

let dispatch t ~ctx ~mbox =
  let v = Mailbox.value (mailbox t) ~ctx ~mbox in
  if mbox = mbox_tx_ring_slots then t.tx_slots.(ctx) <- v
  else if mbox = mbox_rx_ring_slots then t.rx_slots.(ctx) <- v
  else if mbox = mbox_tx_ring_base then begin
    let desc_bytes =
      (Dp.config t.dp).Nic_config.desc_layout.Memory.Desc_layout.size
    in
    Dp.set_tx_ring t.dp ~ctx
      (Ring.create ~base:v ~slots:t.tx_slots.(ctx) ~desc_bytes ())
  end
  else if mbox = mbox_rx_ring_base then begin
    let desc_bytes =
      (Dp.config t.dp).Nic_config.desc_layout.Memory.Desc_layout.size
    in
    Dp.set_rx_ring t.dp ~ctx
      (Ring.create ~base:v ~slots:t.rx_slots.(ctx) ~desc_bytes ())
  end
  else if mbox = mbox_status_addr then Dp.set_status_addr t.dp ~ctx v
  else if mbox = mbox_tx_prod then Dp.tx_doorbell t.dp ~ctx ~prod:v
  else if mbox = mbox_rx_prod then Dp.rx_doorbell t.dp ~ctx ~prod:v
(* Other mailboxes: general-purpose, ignored by this firmware. *)

let rec process_loop t () =
  match Mailbox.next_event (mailbox t) with
  | None -> t.running <- false
  | Some (ctx, mbox) ->
      Mailbox.clear_event (mailbox t) ~ctx ~mbox;
      t.processed <- t.processed + 1;
      dispatch t ~ctx ~mbox;
      Sim.Engine.schedule t.engine ~delay:t.process_cost (process_loop t)

let on_event t () =
  if not t.running then begin
    t.running <- true;
    Sim.Engine.schedule t.engine ~delay:t.process_cost (process_loop t)
  end

let create engine ~dp ~process_cost () =
  let contexts = Dp.contexts dp in
  let t =
    {
      engine;
      dp;
      process_cost;
      mailbox = None;
      tx_slots = Array.make contexts 0;
      rx_slots = Array.make contexts 0;
      running = false;
      processed = 0;
    }
  in
  t.mailbox <- Some (Mailbox.create ~contexts ~on_event:(fun () -> on_event t ()));
  t

let region t ~ctx = Mailbox.region (mailbox t) ~ctx

let driver_if t ~ctx ~mapping : Driver_if.t =
  let write mbox v = Bus.Mmio.write32 mapping ~offset:(mbox * 4) v in
  {
    desc_layout = (Dp.config t.dp).Nic_config.desc_layout;
    setup_tx_ring =
      (fun ring ->
        write mbox_tx_ring_slots (Ring.slots ring);
        write mbox_tx_ring_base (Ring.base ring));
    setup_rx_ring =
      (fun ring ->
        write mbox_rx_ring_slots (Ring.slots ring);
        write mbox_rx_ring_base (Ring.base ring));
    setup_status = (fun addr -> write mbox_status_addr addr);
    tx_doorbell = (fun prod -> write mbox_tx_prod prod);
    rx_doorbell = (fun prod -> write mbox_rx_prod prod);
    stage_tx_meta = (fun frame -> Dp.stage_tx_meta t.dp ~ctx frame);
    take_tx_completions = (fun () -> Dp.take_tx_completions t.dp ~ctx);
    take_rx_completions = (fun ~max -> Dp.take_rx_completions t.dp ~ctx ~max);
    rx_completions_pending = (fun () -> Dp.rx_completions_pending t.dp ~ctx);
  }

type saved_scratch = { saved_tx_slots : int; saved_rx_slots : int }

let save_scratch t ~ctx =
  let s =
    { saved_tx_slots = t.tx_slots.(ctx); saved_rx_slots = t.rx_slots.(ctx) }
  in
  t.tx_slots.(ctx) <- 0;
  t.rx_slots.(ctx) <- 0;
  s

let restore_scratch t ~ctx s =
  t.tx_slots.(ctx) <- s.saved_tx_slots;
  t.rx_slots.(ctx) <- s.saved_rx_slots

let events_processed t = t.processed
