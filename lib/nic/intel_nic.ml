type t = {
  dp : Dp.t;
  irq : Bus.Irq.t;
  coalescer : Coalesce.t;
}

let create engine ~mem ~dma ?(config = Nic_config.intel) ~irq ~dma_context () =
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
  { dp; irq; coalescer = c }

let attach_link t link ~side = Dp.attach_link t.dp link ~side

let enable t ~mac =
  Dp.activate t.dp ~ctx:0 ~mac;
  Dp.set_promiscuous t.dp ~ctx:(Some 0)

let driver_if t : Driver_if.t =
  {
    describe = "intel-e1000";
    desc_layout = (Dp.config t.dp).Nic_config.desc_layout;
    setup_tx_ring = (fun ring -> Dp.set_tx_ring t.dp ~ctx:0 ring);
    setup_rx_ring = (fun ring -> Dp.set_rx_ring t.dp ~ctx:0 ring);
    setup_status = (fun addr -> Dp.set_status_addr t.dp ~ctx:0 addr);
    tx_doorbell = (fun prod -> Dp.tx_doorbell t.dp ~ctx:0 ~prod);
    rx_doorbell = (fun prod -> Dp.rx_doorbell t.dp ~ctx:0 ~prod);
    stage_tx_meta = (fun frame -> Dp.stage_tx_meta t.dp ~ctx:0 frame);
    take_tx_completions = (fun () -> Dp.take_tx_completions t.dp ~ctx:0);
    take_rx_completions =
      (fun ~max -> Dp.take_rx_completions t.dp ~ctx:0 ~max);
    rx_completions_pending = (fun () -> Dp.rx_completions_pending t.dp ~ctx:0);
  }

let dp t = t.dp
let set_uncongested_hook t f = Dp.set_uncongested_hook t.dp f

let register_metrics t m ~labels =
  Dp.register_metrics t.dp m ~labels;
  Coalesce.register_metrics t.coalescer m ~labels
