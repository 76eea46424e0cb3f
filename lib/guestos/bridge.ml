type 'a port = { id : int; payload : 'a }

type 'a t = {
  mutable port_list : 'a port list; (* insertion order *)
  fdb : 'a port Sim.Int_tbl.t; (* keyed by MAC as int48 *)
  mutable next_id : int;
}

let create () = { port_list = []; fdb = Sim.Int_tbl.create 64; next_id = 0 }

let add_port t payload =
  let p = { id = t.next_id; payload } in
  t.next_id <- t.next_id + 1;
  t.port_list <- t.port_list @ [ p ];
  p

let payload p = p.payload
let learn t port mac =
  Sim.Int_tbl.replace t.fdb (Ethernet.Mac_addr.to_int48 mac) port

type 'a decision = To of 'a port | Flood of 'a port list | Drop

let route t ~ingress frame =
  learn t ingress frame.Ethernet.Frame.src;
  let dst = frame.Ethernet.Frame.dst in
  let others () = List.filter (fun p -> p.id <> ingress.id) t.port_list in
  if Ethernet.Mac_addr.is_broadcast dst || Ethernet.Mac_addr.is_multicast dst
  then Flood (others ())
  else
    match Sim.Int_tbl.find_opt t.fdb (Ethernet.Mac_addr.to_int48 dst) with
    | Some p when p.id = ingress.id -> Drop
    | Some p -> To p
    | None -> Flood (others ())

let lookup t mac = Sim.Int_tbl.find_opt t.fdb (Ethernet.Mac_addr.to_int48 mac)
