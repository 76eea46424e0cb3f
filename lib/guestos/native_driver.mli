(** Native (unvirtualized) NIC driver.

    The driver used by the bare-metal baseline and, unmodified, by the Xen
    driver domain (paper section 2.2): it owns its descriptor rings in its
    domain's memory, writes DMA descriptors directly, rings doorbells via
    PIO, and processes completions from interrupts with NAPI-style
    batching. The NIC is fully trusted with the physical addresses it is
    given — the trust relationship the CDNA design replaces for guests.

    Per ring slot the driver owns one page of buffer memory; payload bytes
    are really written to (tx) and read from (rx) those pages when the NIC
    materializes payloads. *)

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

(** [create ~mem ~post_kernel ~costs ~hw ~mac ~alloc_pages ()] builds the
    driver and initializes the hardware: allocates ring/buffer/status
    pages from its domain (via [alloc_pages]), programs the rings, posts
    all receive buffers.

    [tx_slots]/[rx_slots] (default 256) must be powers of two and at most
    256 so each ring fits one page. [materialize] controls whether payload
    bytes are staged in buffers.

    [sg_split] enables scatter/gather transmit (on in the paper's testbed
    configuration): packets longer than the split are described by two
    descriptors — a header fragment of [sg_split] bytes and the rest —
    which the NIC coalesces at the end-of-packet flag. *)
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
  unit ->
  t

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
    descriptor of every packet with the given misbehavior; [None] restores honesty. Only the ring image is
    affected — the driver's own bookkeeping still believes the honest
    descriptor, as a compromised driver's stack would. *)
val set_malice : t -> malice option -> unit

(** Corrupted descriptors emitted so far. *)
val malicious_descs : t -> int
