module Nd = Guestos.Nic_driver

(* What the back end's closures see; built before the core. *)
type binding = {
  hyp : Hyp.t;
  mutable handle : Hyp.ctx_handle;
  mutable generation : int;
      (* Bumped on rebind; in-flight hypercall continuations from the
         previous binding must not touch the new context. *)
  mutable enqueue_errors : int;
  mutable recoveries : int;
}

type t = { b : binding; core : Nd.t }

let hyp_dir = function `Tx -> Hyp.Tx | `Rx -> Hyp.Rx

(* Rings and status are registered by hypercall, one after the other. *)
let register b ~tx_ring ~rx_ring ~status k =
  Hyp.register_ring b.hyp b.handle Hyp.Tx ~base:(Nic.Ring.base tx_ring)
    ~slots:(Nic.Ring.slots tx_ring) (fun _ ->
      Hyp.register_ring b.hyp b.handle Hyp.Rx ~base:(Nic.Ring.base rx_ring)
        ~slots:(Nic.Ring.slots rx_ring) (fun _ ->
          Hyp.register_status b.hyp b.handle ~addr:status (fun _ -> k ())))

let enqueue b ~post_kernel dir descs k =
  let generation = b.generation in
  Hyp.enqueue b.hyp b.handle (hyp_dir dir) descs (fun result ->
      (* Continuation runs at hypercall completion; the doorbell PIO is
         the guest's own (small) kernel work. A rebind in between
         invalidates it. *)
      if b.generation = generation then
        match result with
        | Ok prod ->
            post_kernel ~cost:(Hyp.costs b.hyp).Cdna_costs.pio_doorbell
              (fun () -> if b.generation = generation then k (Some prod))
        | Error _ ->
            b.enqueue_errors <- b.enqueue_errors + 1;
            k None)

let create ~hyp ~handle ~costs ?materialize () =
  let xen = Hyp.xen hyp and guest = Hyp.guest_of handle in
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work xen guest ~cost fn in
  let b = { hyp; handle; generation = 0; enqueue_errors = 0; recoveries = 0 } in
  let core =
    Nd.create ~mem:(Xen.Hypervisor.mem xen) ~post_kernel ~costs
      ~hw:(Hyp.driver_if handle) ~mac:(Hyp.mac_of handle)
      ~alloc_pages:(fun n -> Xen.Hypervisor.alloc_pages xen guest n)
      ?materialize
      ~backend:
        (Nd.Hypercall
           {
             register =
               (fun ~tx_ring ~rx_ring ~status k ->
                 register b ~tx_ring ~rx_ring ~status k);
             enqueue = (fun dir descs k -> enqueue b ~post_kernel dir descs k);
           })
      ()
  in
  Hyp.set_event_handler handle (fun () -> Nd.handle_interrupt core);
  { b; core }

let rebind t handle =
  t.b.generation <- t.b.generation + 1;
  t.b.handle <- handle;
  Hyp.set_event_handler handle (fun () -> Nd.handle_interrupt t.core);
  Nd.rebind t.core (Hyp.driver_if handle)

(* Guest-driven fault recovery: when the NIC halts this driver's context
   with a protection fault, ask the hypervisor for a fresh context (same
   MAC, bounded retry/backoff inside {!Hyp.reassign}) and rebind to it.
   Frames lost on the halted context are the transport's problem, exactly
   as for migration. *)
let rec enable_auto_recovery t =
  Hyp.set_fault_hook t.b.handle (fun () ->
      Hyp.reassign t.b.hyp t.b.handle (function
        | Ok fresh ->
            t.b.recoveries <- t.b.recoveries + 1;
            rebind t fresh;
            enable_auto_recovery t
        | Error `No_free_context -> ()))

let core t = t.core
let enqueue_errors t = t.b.enqueue_errors
let recoveries t = t.b.recoveries
let handle t = t.b.handle
