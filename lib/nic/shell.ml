type t = { dp : Dp.t; coalescer : Coalesce.t; firmware : Firmware.t option }

let create engine ~mem ~dma ~config ~contexts ~dma_context_base ~notify
    ~on_fault ~fire =
  let coalescer =
    Coalesce.create engine ~min_gap:config.Nic_config.intr_min_gap ~fire
  in
  let notify ~ctx =
    notify ~ctx;
    Coalesce.request coalescer
  in
  let dp =
    Dp.create engine ~mem ~dma ~config ~contexts ~dma_context_base ~notify
      ~on_fault ()
  in
  let firmware =
    Option.map
      (fun process_cost -> Firmware.create engine ~dp ~process_cost ())
      config.Nic_config.firmware_delay
  in
  { dp; coalescer; firmware }

let dp t = t.dp
let firmware t = t.firmware

let register_metrics t m ~labels =
  Dp.register_metrics t.dp m ~labels;
  Coalesce.register_metrics t.coalescer m ~labels;
  Option.iter
    (fun fw ->
      Mailbox.register_metrics (Firmware.mailbox fw) m ~labels;
      Sim.Metrics.gauge m ~labels "firmware.events_processed" (fun () ->
          Firmware.events_processed fw))
    t.firmware
