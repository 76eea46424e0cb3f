type entry = { frame : Ethernet.Frame.t; pfn : Memory.Addr.pfn }

type t = {
  capacity : int;
  tx : entry Queue.t;
  rx : entry Queue.t;
  mutable completions : int;
  mutable completion_pages : Memory.Addr.pfn list;
  mutable returned : Memory.Addr.pfn list;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Xchan.create: non-positive capacity";
  {
    capacity;
    tx = Queue.create ();
    rx = Queue.create ();
    completions = 0;
    completion_pages = [];
    returned = [];
  }

let push q cap e = if Queue.length q >= cap then false else (Queue.push e q; true)

let tx_push t e = push t.tx t.capacity e
let tx_pop t = Queue.take_opt t.tx
let tx_peek t = Queue.peek_opt t.tx
let tx_used t = Queue.length t.tx
let tx_space t = t.capacity - Queue.length t.tx
let rx_push t e = push t.rx t.capacity e
let rx_pop t = Queue.take_opt t.rx
let rx_used t = Queue.length t.rx
let rx_space t = t.capacity - Queue.length t.rx

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
