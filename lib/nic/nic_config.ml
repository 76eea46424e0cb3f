type t = {
  name : string;
  link_rate_bps : int;
  tx_buffer_bytes : int;
  rx_buffer_bytes : int;
  firmware_delay : Sim.Time.t;
  intr_min_gap : Sim.Time.t;
  seqno_checking : bool;
  desc_layout : Memory.Desc_layout.t;
  materialize_payloads : bool;
}

let ricenic =
  {
    name = "RiceNIC";
    link_rate_bps = 1_000_000_000;
    (* 128 KB per direction per context, 32 contexts, managed globally. *)
    tx_buffer_bytes = 32 * 128 * 1024;
    rx_buffer_bytes = 32 * 128 * 1024;
    firmware_delay = Sim.Time.ns 500;
    intr_min_gap = Sim.Time.us 70;
    seqno_checking = false;
    desc_layout = Memory.Desc_layout.default;
    materialize_payloads = false;
  }

let intel =
  {
    name = "Intel-Pro1000";
    link_rate_bps = 1_000_000_000;
    tx_buffer_bytes = 48 * 1024;
    rx_buffer_bytes = 48 * 1024;
    firmware_delay = Sim.Time.ns 200;
    intr_min_gap = Sim.Time.us 70;
    seqno_checking = false;
    desc_layout = Memory.Desc_layout.default;
    materialize_payloads = false;
  }

let pp ppf t =
  Format.fprintf ppf "%s (%d Mb/s, seqno=%b)" t.name
    (t.link_rate_bps / 1_000_000) t.seqno_checking
