type entry = { frame : Ethernet.Frame.t; pfn : Memory.Addr.pfn }

type t = {
  capacity : int;
  tx : entry Sim.Fifo.t;
  rx : entry Sim.Fifo.t;
  mutable completions : int;
  mutable completion_pages : Memory.Addr.pfn list;
  mutable returned : Memory.Addr.pfn list;
}

let no_entry = { frame = Ethernet.Frame.placeholder; pfn = 0 }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Xchan.create: non-positive capacity";
  {
    capacity;
    tx = Sim.Fifo.create ~dummy:no_entry;
    rx = Sim.Fifo.create ~dummy:no_entry;
    completions = 0;
    completion_pages = [];
    returned = [];
  }

let push q cap e =
  if Sim.Fifo.length q >= cap then false else (Sim.Fifo.push q e; true)

let tx_push t e = push t.tx t.capacity e
let tx_pop t = Sim.Fifo.pop t.tx
let tx_peek t = Sim.Fifo.peek t.tx
let tx_used t = Sim.Fifo.length t.tx
let tx_space t = t.capacity - Sim.Fifo.length t.tx
let rx_push t e = push t.rx t.capacity e
let rx_pop t = Sim.Fifo.pop t.rx
let rx_used t = Sim.Fifo.length t.rx
let rx_space t = t.capacity - Sim.Fifo.length t.rx

let push_tx_completion t ~pages ~count =
  t.completions <- t.completions + count;
  t.completion_pages <- List.rev_append pages t.completion_pages

let take_tx_completions t =
  let r = (t.completions, t.completion_pages) in
  t.completions <- 0;
  t.completion_pages <- [];
  r

let tx_completions_pending t = t.completions

let push_returned_page t pfn = t.returned <- pfn :: t.returned

let take_returned_pages t =
  let r = t.returned in
  t.returned <- [];
  r
