type t = {
  name : string;
  tx_buffer_bytes : int;
  rx_buffer_bytes : int;
  firmware_delay : Sim.Time.t option;
  intr_min_gap : Sim.Time.t;
  seqno_checking : bool;
  desc_layout : Memory.Desc_layout.t;
  materialize_payloads : bool;
}

let ricenic =
  {
    name = "RiceNIC";
    (* 128 KB per direction per context, 32 contexts, managed globally. *)
    tx_buffer_bytes = 32 * 128 * 1024;
    rx_buffer_bytes = 32 * 128 * 1024;
    firmware_delay = Some (Sim.Time.ns 500);
    intr_min_gap = Sim.Time.us 70;
    seqno_checking = false;
    desc_layout = Memory.Desc_layout.default;
    materialize_payloads = false;
  }

let intel =
  {
    name = "Intel-Pro1000";
    tx_buffer_bytes = 48 * 1024;
    rx_buffer_bytes = 48 * 1024;
    firmware_delay = None;
    intr_min_gap = Sim.Time.us 70;
    seqno_checking = false;
    desc_layout = Memory.Desc_layout.default;
    materialize_payloads = false;
  }

let pp ppf t = Format.fprintf ppf "%s (seqno=%b)" t.name t.seqno_checking
