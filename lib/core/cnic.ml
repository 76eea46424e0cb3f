let num_contexts = 32

let default_config =
  {
    Nic.Nic_config.ricenic with
    Nic.Nic_config.name = "CDNA-RiceNIC";
    seqno_checking = true;
  }

(* What the datapath and the coalescer call back into; built before
   them. *)
type vector = {
  engine : Sim.Engine.t;
  irq : Bus.Irq.t;
  intr : Intr_vector.t;
  mutable dirty : int; (* contexts with new completion state *)
  mutable raised : int;
  mutable fault_handler : ctx:int -> Nic.Dp.dir -> Nic.Dp.fault -> unit;
}

type t = { shell : Nic.Shell.t; firmware : Nic.Firmware.t; v : vector }

(* Flush the dirty-context set as one interrupt bit vector; if the
   circular buffer is full, hold the interrupt and retry shortly. *)
let rec flush v =
  if v.dirty <> 0 then begin
    let bits = v.dirty in
    let posted =
      Intr_vector.try_post v.intr ~bits ~on_done:(fun () ->
          v.raised <- v.raised + 1;
          Bus.Irq.assert_line v.irq)
    in
    if posted then v.dirty <- 0
    else
      Sim.Engine.schedule v.engine ~delay:(Sim.Time.us 5) (fun () -> flush v)
  end

let create engine ~mem ~dma ?(config = default_config) ~irq ~dma_context_base
    ~intr_base () =
  let v =
    {
      engine;
      irq;
      intr =
        Intr_vector.create ~mem ~dma ~base:intr_base ~slots:256
          ~dma_context:(dma_context_base + num_contexts);
      dirty = 0;
      raised = 0;
      fault_handler = (fun ~ctx:_ _ _ -> ());
    }
  in
  let shell =
    Nic.Shell.create engine ~mem ~dma ~config ~contexts:num_contexts
      ~dma_context_base
      ~notify:(fun ~ctx -> v.dirty <- v.dirty lor (1 lsl ctx))
      ~on_fault:(fun ~ctx dir fault -> v.fault_handler ~ctx dir fault)
      ~fire:(fun () -> flush v)
  in
  match Nic.Shell.firmware shell with
  | Some firmware -> { shell; firmware; v }
  | None -> invalid_arg "Cnic.create: config has no firmware"

let dp t = Nic.Shell.dp t.shell
let firmware t = t.firmware
let irq t = t.v.irq
let intr_vector t = t.v.intr
let set_fault_handler t f = t.v.fault_handler <- f

let free_context t =
  (* A context can be faulted with [active = false] (halted by a
     protection fault, not yet deactivated); its seqno/ring state is not
     reset, so handing it out would poison the next guest. Only a fully
     reset slot — neither active nor faulted — is free. *)
  let dp = dp t in
  let rec scan i =
    if i >= num_contexts then None
    else if
      (not (Nic.Dp.is_active dp ~ctx:i)) && not (Nic.Dp.is_faulted dp ~ctx:i)
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

let save_context t ~ctx ~mailbox =
  let sc_dp = Nic.Dp.save_context (dp t) ~ctx in
  Nic.Mailbox.save_partition (Nic.Firmware.mailbox t.firmware) ~ctx mailbox;
  let sc_firmware = Nic.Firmware.save_scratch t.firmware ~ctx in
  { sc_dp; sc_mailbox = mailbox; sc_firmware }

let restore_context_image t ~ctx s =
  Nic.Firmware.restore_scratch t.firmware ~ctx s.sc_firmware;
  Nic.Mailbox.restore_partition (Nic.Firmware.mailbox t.firmware) ~ctx
    s.sc_mailbox;
  Nic.Dp.restore_context (dp t) ~ctx s.sc_dp

let register_metrics t m ~labels =
  Nic.Shell.register_metrics t.shell m ~labels;
  Sim.Metrics.gauge m ~labels "cnic.interrupts_raised" (fun () -> t.v.raised)
