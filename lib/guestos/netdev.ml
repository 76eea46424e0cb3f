type t = {
  mac : Ethernet.Mac_addr.t;
  send_impl : Ethernet.Frame.t list -> unit;
  tx_space_impl : unit -> int;
  mutable rx_handler : Ethernet.Frame.t list -> unit;
  mutable tx_done_handler : int -> unit;
  mutable writable_hook : unit -> unit;
  mutable sent : int;
  mutable received : int;
}

let create ~mac ~send ~tx_space =
  {
    mac;
    send_impl = send;
    tx_space_impl = tx_space;
    rx_handler = (fun _ -> ());
    tx_done_handler = (fun _ -> ());
    writable_hook = (fun () -> ());
    sent = 0;
    received = 0;
  }

let mac t = t.mac

let send t frames =
  t.sent <- t.sent + List.length frames;
  t.send_impl frames

let tx_space t = t.tx_space_impl ()
let set_rx_handler t f = t.rx_handler <- f
let set_tx_done_handler t f = t.tx_done_handler <- f
let set_writable_hook t f = t.writable_hook <- f

let deliver_rx t frames =
  t.received <- t.received + List.length frames;
  t.rx_handler frames

let notify_tx_done t n = t.tx_done_handler n
let notify_writable t = t.writable_hook ()
let frames_sent t = t.sent
let frames_received t = t.received
