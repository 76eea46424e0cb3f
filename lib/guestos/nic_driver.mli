(** The guest NIC driver: one NAPI core, two posting back ends.

    The core owns what every NIC driver does alike: one page of buffer
    memory per ring slot, the queue of frames waiting for ring room,
    payload staging (bytes really written to and read from those pages
    when payloads are materialized), descriptor construction, NAPI-style
    interrupt-driven polling and the stack-facing {!Netdev.t}. A
    {!backend} decides how descriptors reach the NIC's rings (paper
    section 3.3: the CDNA guest driver is the native driver with its
    descriptor writes turned into hypercalls). *)

type t

(** Misbehaviors for the malicious-driver mode (see {!set_malice}): the
    descriptor classes a buggy or hostile guest driver could hand an
    unprotected NIC — exactly the attacks CDNA's hypervisor validation,
    sequence numbers and IOMMU are meant to catch (paper sections 3.3 and
    5.3). *)
type malice =
  | Out_of_sequence  (** Forged (skipped-ahead) descriptor sequence number. *)
  | Foreign_page of Memory.Addr.pfn
      (** Transmit descriptor pointing at a page this driver does not own. *)
  | Over_length
      (** Descriptor length running several pages past the buffer. *)

(** How descriptors reach the rings.

    [Ring] is the native driver of bare metal and the Xen driver domain
    (paper section 2.2): the driver owns its rings, writes each
    descriptor into them itself (sequence-stamped with the ring slot),
    rings one doorbell per batch and reposts one receive buffer per
    frame; {!create} programs the rings synchronously. The NIC is trusted
    with every address it is given.

    [Hypercall] is the CDNA guest driver (paper section 3.3): descriptors
    (sequence number 0; the hypervisor stamps them) go to [enqueue] in
    batches of at most [tx_batch_limit] frames, one batch per direction
    in flight; receive buffers are reposted from a backlog. [enqueue dir
    descs k] calls [k (Some prod)] once the doorbell may be written with
    producer index [prod], or [k None] if the batch was rejected (a
    rejected transmit batch goes back to the head of the queue).
    Bring-up is asynchronous: [register ~tx_ring ~rx_ring ~status k]
    hands the ring and status memory to the device and calls [k] when it
    is done; the device reports no transmit space until then and fires
    the netdev writable hook when it comes up. *)
type backend =
  | Ring
  | Hypercall of {
      register :
        tx_ring:Nic.Ring.t ->
        rx_ring:Nic.Ring.t ->
        status:Memory.Addr.t ->
        (unit -> unit) ->
        unit;
      enqueue :
        [ `Tx | `Rx ] -> Memory.Dma_desc.t list -> (int option -> unit) -> unit;
    }

(** [create ~mem ~post_kernel ~costs ~hw ~mac ~alloc_pages ~backend ()]
    allocates ring, status and buffer pages from the driver's domain (via
    [alloc_pages]) and brings the device up through [backend].

    [tx_slots]/[rx_slots] (default 256) must be powers of two and at most
    256 so each ring fits one page. [materialize] controls whether payload
    bytes are staged in buffers.

    [sg_split] enables scatter/gather transmit on the ring back end (the
    hypercall back end describes every frame with one descriptor):
    packets longer than the split are described by two descriptors — a
    header fragment of [sg_split] bytes and the rest — which the NIC
    coalesces at the end-of-packet flag. No testbed sets it; the
    guest-OS tests do. *)
val create :
  mem:Memory.Phys_mem.t ->
  post_kernel:(cost:Sim.Time.t -> (unit -> unit) -> unit) ->
  costs:Os_costs.t ->
  hw:Nic.Driver_if.t ->
  mac:Ethernet.Mac_addr.t ->
  alloc_pages:(int -> Memory.Addr.pfn list) ->
  ?tx_slots:int ->
  ?rx_slots:int ->
  ?materialize:bool ->
  ?sg_split:int ->
  backend:backend ->
  unit ->
  t

(** [rebind t hw] re-targets the driver at a fresh hardware interface:
    ring state is dropped and the device brought up again through the
    back end. Frames still queued in the driver are transmitted after
    bring-up; frames lost in flight are the transport's problem (as on
    any link flap). *)
val rebind : t -> Nic.Driver_if.t -> unit

(** True once rings and buffers are registered and posted. *)
val ready : t -> bool

(** The stack-facing device. *)
val netdev : t -> Netdev.t

(** Entry point for the (virtual or physical) interrupt: schedules a poll
    if one is not already pending. Safe to call from any context. *)
val handle_interrupt : t -> unit

(** Frames fully transmitted / received so far. *)
val tx_count : t -> int

val rx_count : t -> int

(** Number of polls executed (diagnostic; relates interrupt rate to
    batching). *)
val polls : t -> int

(** [set_malice t (Some kind)] corrupts the end-of-packet transmit
    descriptor of every packet with the given misbehavior; [None]
    restores honesty. Only the descriptor is affected — the driver's own
    bookkeeping still believes the honest one, as a compromised driver's
    stack would. *)
val set_malice : t -> malice option -> unit

(** Corrupted descriptors emitted so far. *)
val malicious_descs : t -> int
