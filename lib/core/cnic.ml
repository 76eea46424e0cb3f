let num_contexts = 32

let default_config =
  {
    Nic.Nic_config.ricenic with
    Nic.Nic_config.name = "CDNA-RiceNIC";
    seqno_checking = true;
  }

type t = {
  engine : Sim.Engine.t;
  dp : Nic.Dp.t;
  dma_context_base : int;
  firmware : Nic.Firmware.t;
  irq : Bus.Irq.t;
  intr : Intr_vector.t;
  coalescer : Nic.Coalesce.t;
  mutable dirty : int; (* contexts with new completion state *)
  mutable fault_handler : ctx:int -> Nic.Dp.dir -> Nic.Dp.fault -> unit;
  mutable raised : int;
}

(* Flush the dirty-context set as one interrupt bit vector; if the
   circular buffer is full, hold the interrupt and retry shortly. *)
let rec flush t =
  if t.dirty <> 0 then begin
    let bits = t.dirty in
    let posted =
      Intr_vector.try_post t.intr ~bits ~on_done:(fun () ->
          t.raised <- t.raised + 1;
          Bus.Irq.assert_line t.irq)
    in
    if posted then t.dirty <- 0
    else
      Sim.Engine.schedule t.engine ~delay:(Sim.Time.us 5) (fun () -> flush t)
  end

let create engine ~mem ~dma ?(config = default_config) ~irq ~dma_context_base
    ~intr_base () =
  let self = ref None in
  let notify ~ctx =
    match !self with
    | None -> ()
    | Some t ->
        t.dirty <- t.dirty lor (1 lsl ctx);
        Nic.Coalesce.request t.coalescer
  in
  let on_fault ~ctx dir fault =
    match !self with Some t -> t.fault_handler ~ctx dir fault | None -> ()
  in
  let dp =
    Nic.Dp.create engine ~mem ~dma ~config ~contexts:num_contexts
      ~dma_context_base ~notify ~on_fault ()
  in
  let firmware =
    Nic.Firmware.create engine ~dp
      ~process_cost:config.Nic.Nic_config.firmware_delay ()
  in
  let intr =
    Intr_vector.create ~mem ~dma ~base:intr_base ~slots:256
      ~dma_context:(dma_context_base + num_contexts)
  in
  let coalescer =
    Nic.Coalesce.create engine ~min_gap:config.Nic.Nic_config.intr_min_gap
      ~fire:(fun () ->
        match !self with Some t -> flush t | None -> ())
  in
  let t =
    {
      engine;
      dp;
      dma_context_base;
      firmware;
      irq;
      intr;
      coalescer;
      dirty = 0;
      fault_handler = (fun ~ctx:_ _ _ -> ());
      raised = 0;
    }
  in
  self := Some t;
  t

let attach_link t link ~side = Nic.Dp.attach_link t.dp link ~side
let dp t = t.dp
let irq t = t.irq
let intr_vector t = t.intr
let dma t = Nic.Dp.dma t.dp
let desc_layout t = (Nic.Dp.config t.dp).Nic.Nic_config.desc_layout
let dma_context_of t ~ctx = t.dma_context_base + ctx
let intr_dma_context t = t.dma_context_base + num_contexts

let activate_context t ~ctx ~mac = Nic.Dp.activate t.dp ~ctx ~mac
let revoke_context t ~ctx = Nic.Dp.deactivate t.dp ~ctx

let set_expected_seqno t ~ctx ~tx ~rx =
  Nic.Dp.set_expected_seqno t.dp ~ctx ~tx ~rx

let free_context t =
  (* A context can be faulted with [active = false] (halted by a
     protection fault, not yet deactivated); its seqno/ring state is not
     reset, so handing it out would poison the next guest. Only a fully
     reset slot — neither active nor faulted — is free. *)
  let rec scan i =
    if i >= num_contexts then None
    else if
      (not (Nic.Dp.is_active t.dp ~ctx:i))
      && not (Nic.Dp.is_faulted t.dp ~ctx:i)
    then Some i
    else scan (i + 1)
  in
  scan 0

(* Context paging: the full per-context hardware image is the datapath's
   architectural state, the SRAM mailbox partition and the firmware's
   ring-geometry scratch. *)
type saved_context = {
  sc_dp : Nic.Dp.saved_ctx;
  sc_mailbox : Nic.Mailbox.saved_partition;
  sc_firmware : Nic.Firmware.saved_scratch;
}

let save_context t ~ctx =
  let sc_dp = Nic.Dp.save_context t.dp ~ctx in
  let sc_mailbox =
    Nic.Mailbox.save_partition (Nic.Firmware.mailbox t.firmware) ~ctx
  in
  let sc_firmware = Nic.Firmware.save_scratch t.firmware ~ctx in
  { sc_dp; sc_mailbox; sc_firmware }

let restore_context_image t ~ctx s =
  Nic.Firmware.restore_scratch t.firmware ~ctx s.sc_firmware;
  Nic.Mailbox.restore_partition (Nic.Firmware.mailbox t.firmware) ~ctx
    s.sc_mailbox;
  Nic.Dp.restore_context t.dp ~ctx s.sc_dp

let region t ~ctx = Nic.Firmware.region t.firmware ~ctx
let driver_if t ~ctx ~mapping = Nic.Firmware.driver_if t.firmware ~ctx ~mapping
let set_tx_ring t ~ctx ring = Nic.Dp.set_tx_ring t.dp ~ctx ring
let set_rx_ring t ~ctx ring = Nic.Dp.set_rx_ring t.dp ~ctx ring
let set_status_addr t ~ctx addr = Nic.Dp.set_status_addr t.dp ~ctx addr
let set_fault_handler t f = t.fault_handler <- f
let set_uncongested_hook t f = Nic.Dp.set_uncongested_hook t.dp f

let register_metrics t m ~labels =
  Nic.Dp.register_metrics t.dp m ~labels;
  Nic.Coalesce.register_metrics t.coalescer m ~labels;
  Nic.Mailbox.register_metrics (Nic.Firmware.mailbox t.firmware) m ~labels;
  Sim.Metrics.gauge m ~labels "firmware.events_processed" (fun () ->
      Nic.Firmware.events_processed t.firmware);
  Sim.Metrics.gauge m ~labels "cnic.interrupts_raised" (fun () -> t.raised)
