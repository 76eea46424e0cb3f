type t = {
  shell : Shell.t;
  (* With firmware: the driver's mapping of context 0's mailbox partition. *)
  mailbox : (Firmware.t * Bus.Mmio.mapping) option;
}

let create engine ~mem ~dma ~config ~irq ~dma_context =
  let shell =
    Shell.create engine ~mem ~dma ~config ~contexts:1
      ~dma_context_base:dma_context
      ~notify:(fun ~ctx:_ -> ())
      ~on_fault:(fun ~ctx:_ _ _ -> ())
      ~fire:(fun () -> Bus.Irq.assert_line irq)
  in
  let mailbox =
    match Shell.firmware shell with
    | Some fw -> Some (fw, Bus.Mmio.map (Firmware.region fw ~ctx:0))
    | None -> None
  in
  { shell; mailbox }

let dp t = Shell.dp t.shell
let register_metrics t = Shell.register_metrics t.shell

let enable t ~mac =
  Dp.activate (dp t) ~ctx:0 ~mac;
  Dp.set_promiscuous (dp t) ~ctx:(Some 0)

let driver_if t : Driver_if.t =
  match t.mailbox with
  | Some (fw, mapping) -> Firmware.driver_if fw ~ctx:0 ~mapping
  | None ->
      (* Register writes act on the datapath at once. *)
      let dp = dp t in
      {
        desc_layout = (Dp.config dp).Nic_config.desc_layout;
        setup_tx_ring = (fun ring -> Dp.set_tx_ring dp ~ctx:0 ring);
        setup_rx_ring = (fun ring -> Dp.set_rx_ring dp ~ctx:0 ring);
        setup_status = (fun addr -> Dp.set_status_addr dp ~ctx:0 addr);
        tx_doorbell = (fun prod -> Dp.tx_doorbell dp ~ctx:0 ~prod);
        rx_doorbell = (fun prod -> Dp.rx_doorbell dp ~ctx:0 ~prod);
        stage_tx_meta = (fun frame -> Dp.stage_tx_meta dp ~ctx:0 frame);
        take_tx_completions = (fun () -> Dp.take_tx_completions dp ~ctx:0);
        take_rx_completions =
          (fun ~max -> Dp.take_rx_completions dp ~ctx:0 ~max);
        rx_completions_pending =
          (fun () -> Dp.rx_completions_pending dp ~ctx:0);
      }
