type system = Native | Xen_sw | Cdna_sys
type nic_kind = Intel | Ricenic

type t = {
  system : system;
  nic : nic_kind;
  nics : int;
  guests : int;
  cpus : int;
  driver_weight : int;
  pattern : Workload.Pattern.t;
  conns_per_guest_per_nic : int;
  window : int;
  payload : int;
  gso_segments : int;
  protection : Cdna.Cdna_costs.protection;
  materialize : bool;
  seed : int;
  warmup : Sim.Time.t;
  duration : Sim.Time.t;
  slice : Sim.Time.t option;
}

let default =
  {
    system = Cdna_sys;
    nic = Ricenic;
    nics = 2;
    guests = 1;
    cpus = 1;
    driver_weight = 256;
    pattern = Workload.Pattern.Tx;
    conns_per_guest_per_nic = 2;
    window = 48;
    payload = 1500;
    gso_segments = 1;
    protection = Cdna.Cdna_costs.Full;
    materialize = false;
    seed = 42;
    warmup = Sim.Time.ms 60;
    duration = Sim.Time.ms 200;
    slice = None;
  }

let xen_intel t = { t with system = Xen_sw; nic = Intel }
let cdna_ricenic t = { t with system = Cdna_sys; nic = Ricenic }
let host t i = { t with seed = t.seed + (7919 * i) }

let system_name = function
  | Native -> "Native"
  | Xen_sw -> "Xen"
  | Cdna_sys -> "CDNA"

let nic_name = function Intel -> "Intel" | Ricenic -> "RiceNIC"

let describe t =
  Printf.sprintf "%s/%s %d-NIC %d-guest %s (window=%d, payload=%d)"
    (system_name t.system) (nic_name t.nic) t.nics t.guests
    (Workload.Pattern.to_string t.pattern)
    t.window t.payload
