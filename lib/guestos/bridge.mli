(** Software Ethernet bridge (driver-domain).

    The learning bridge that interconnects the physical NIC(s) and all
    back-end interfaces in Xen's driver domain (paper Figure 1). Pure
    routing decisions: the caller (netback) moves the frames and charges
    the CPU cost. Ports carry an arbitrary payload ['a] identifying where
    the frame should go. *)

type 'a t
type 'a port

val create : unit -> 'a t
val add_port : 'a t -> 'a -> 'a port
val payload : 'a port -> 'a

(** [learn t port mac] associates [mac] with [port] (also done implicitly
    by {!route} for the frame's source). *)
val learn : 'a t -> 'a port -> Ethernet.Mac_addr.t -> unit

type 'a decision =
  | To of 'a port
  | Flood of 'a port list  (** Unknown/broadcast: all ports but ingress. *)
  | Drop  (** Destination is behind the ingress port. *)

(** [route t ~ingress frame] learns the source and decides the egress. *)
val route : 'a t -> ingress:'a port -> Ethernet.Frame.t -> 'a decision

val lookup : 'a t -> Ethernet.Mac_addr.t -> 'a port option
