type t = {
  dp : Dp.t;
  firmware : Firmware.t;
  mapping : Bus.Mmio.mapping;
  coalescer : Coalesce.t;
}

let create engine ~mem ~dma ?(config = Nic_config.ricenic) ~irq ~dma_context () =
  let coalescer = ref None in
  let notify ~ctx:_ =
    match !coalescer with Some c -> Coalesce.request c | None -> ()
  in
  let on_fault ~ctx:_ _dir _fault = () in
  let dp =
    Dp.create engine ~mem ~dma ~config ~contexts:1
      ~dma_context_base:dma_context ~notify ~on_fault ()
  in
  let c =
    Coalesce.create engine ~min_gap:config.Nic_config.intr_min_gap
      ~fire:(fun () -> Bus.Irq.assert_line irq)
  in
  coalescer := Some c;
  let firmware =
    Firmware.create engine ~dp
      ~process_cost:config.Nic_config.firmware_delay ()
  in
  let mapping = Bus.Mmio.map (Firmware.region firmware ~ctx:0) in
  { dp; firmware; mapping; coalescer = c }

let attach_link t link ~side = Dp.attach_link t.dp link ~side

let enable t ~mac =
  Dp.activate t.dp ~ctx:0 ~mac;
  Dp.set_promiscuous t.dp ~ctx:(Some 0)

let driver_if t = Firmware.driver_if t.firmware ~ctx:0 ~mapping:t.mapping
let dp t = t.dp
let set_uncongested_hook t f = Dp.set_uncongested_hook t.dp f

let register_metrics t m ~labels =
  Dp.register_metrics t.dp m ~labels;
  Coalesce.register_metrics t.coalescer m ~labels;
  Mailbox.register_metrics (Firmware.mailbox t.firmware) m ~labels;
  Sim.Metrics.gauge m ~labels "firmware.events_processed" (fun () ->
      Firmware.events_processed t.firmware)
