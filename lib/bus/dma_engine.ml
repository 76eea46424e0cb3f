type fault = [ `Bad_range | `Iommu_denied of Memory.Addr.pfn | `Injected ]

type op = Access | Read_into | Write_from | Write_pair

(* An admitted transfer waiting for its completion event: the bytes to
   move at completion and the continuation to run after them. *)
type pending = {
  mutable op : op;
  mutable addr : Memory.Addr.t;
  mutable len : int;
  mutable buf : Bytes.t; (* [Read_into] destination / [Write_from] source *)
  mutable pos : int;
  mutable v0 : int; (* [Write_pair]'s two little-endian u32s *)
  mutable v1 : int;
  mutable k : (unit, fault) result -> unit;
}

type t = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  mutable iommu : Memory.Iommu.t option;
  mutable injector : (context:int -> addr:Memory.Addr.t -> len:int -> bool) option;
  mutable busy_until : Sim.Time.t;
  mutable transfers : int;
  mutable bytes_moved : int;
  mutable busy_time : Sim.Time.t;
  mutable injected_faults : int;
  (* Completions of admitted [access] / [read_into] / [write_from] /
     [write_u32_pair] transfers, in submission order, and the one closure
     every completion event runs. Each transfer occupies the bus for at
     least the arbitration slot and the latency is constant, so their
     completion times strictly increase in submission order: the ring's
     head is always the transfer whose event is firing. *)
  pending : pending Sim.Slot_ring.t;
  mutable complete : unit -> unit;
}

(* The PCI-X 64/133 fabric: 8.5 Gb/s, with a 600 ns pipelined request
   latency. *)
let bandwidth_bps = 8_500_000_000
let latency = Sim.Time.ns 600

let no_k (_ : (unit, fault) result) = ()
let no_completion () = ()

let make_pending () =
  { op = Access; addr = 0; len = 0; buf = Bytes.empty; pos = 0; v0 = 0; v1 = 0; k = no_k }

let set_iommu t iommu = t.iommu <- iommu
let set_fault_injector t f = t.injector <- f

(* An injected fault models a parity/timeout error on a transaction that
   was otherwise admitted: it occupies the bus like the real transfer
   would, then completes in error. *)
let[@cdna.hot] injected t ~context ~addr ~len =
  match t.injector with
  | None -> false
  | Some f ->
      let hit =
        (f ~context ~addr ~len
        [@cdna.alloc_ok "fault injection is test-only instrumentation"])
      in
      if hit then t.injected_faults <- t.injected_faults + 1;
      hit

(* One bounds predicate for the whole bus, shared with Phys_mem so the
   admission check cannot drift from the memory's own validation. *)
let[@cdna.hot] in_range t ~addr ~len =
  Memory.Phys_mem.valid_range t.mem ~addr ~len

let[@cdna.hot] iommu_check t ~context ~addr ~len =
  match t.iommu with
  | None -> Ok ()
  | Some iommu ->
      let pages =
        (Memory.Addr.pages_spanned ~addr ~len
        [@cdna.alloc_ok
          "page list is bounded by pages-per-frame (<= 2 in practice); \
           only built when an IOMMU is installed"])
      in
      let rec check = function
        | [] -> Ok ()
        | pfn :: rest ->
            if Memory.Iommu.allowed iommu ~context pfn then check rest
            else
              (Error (`Iommu_denied pfn)
              [@cdna.alloc_ok "fault path, not steady state"])
      in
      check pages

(* Per-transaction arbitration overhead occupying the bus; the request
   latency itself is pipelined (it delays completion but not the next
   transfer). *)
let arbitration = Sim.Time.ns 40

(* Occupy the bus for one transfer and return its completion time. *)
let[@cdna.hot] occupy t ~op ~context ~len =
  let now = Sim.Engine.now t.engine in
  let start = Sim.Time.max now t.busy_until in
  let occupancy =
    Sim.Time.add arbitration
      (Sim.Time.bits_time ~bits:(len * 8) ~rate_bps:bandwidth_bps)
  in
  let bus_free = Sim.Time.add start occupancy in
  t.busy_until <- bus_free;
  t.busy_time <- Sim.Time.add t.busy_time occupancy;
  t.transfers <- t.transfers + 1;
  t.bytes_moved <- t.bytes_moved + len;
  if Sim.Trace.enabled () then
    (Sim.Trace.complete ~time:start ~dur:occupancy ~tag:"dma" ~tid:context
       ~args:[ ("len", Sim.Trace.Int len); ("context", Sim.Trace.Int context) ]
       op
    [@cdna.alloc_ok "tracing branch, disabled unless the dma tag is on"]);
  Sim.Time.add bus_free latency

(* Faulted and non-zero-copy transfers complete through their own
   closure, off the ring. *)
let[@cdna.hot] submit t ~op ~context ~len action =
  Sim.Engine.schedule_at t.engine (occupy t ~op ~context ~len) action

let[@cdna.hot] enqueue t ~name ~context op ~addr ~len ~buf ~pos ~v0 ~v1 k =
  let at = occupy t ~op:name ~context ~len in
  let p = Sim.Slot_ring.push t.pending in
  p.op <- op;
  p.addr <- addr;
  p.len <- len;
  p.buf <- buf;
  p.pos <- pos;
  p.v0 <- v0;
  p.v1 <- v1;
  p.k <- k;
  Sim.Engine.schedule_at t.engine at t.complete

(* The head slot is copied out before [k] runs: [k] may submit again. *)
let[@cdna.hot] complete t () =
  let p = Sim.Slot_ring.pop t.pending in
  let k = p.k in
  (match p.op with
  | Access -> ()
  | Read_into ->
      Memory.Phys_mem.read_into t.mem ~addr:p.addr ~len:p.len p.buf ~pos:p.pos
  | Write_from ->
      Memory.Phys_mem.write_sub t.mem ~addr:p.addr p.buf ~pos:p.pos ~len:p.len
  | Write_pair ->
      Memory.Phys_mem.write_u32 t.mem ~addr:p.addr p.v0;
      Memory.Phys_mem.write_u32 t.mem ~addr:(p.addr + 4) p.v1);
  k (Ok ())

let create engine ~mem () =
  let t =
    {
      engine;
      mem;
      iommu = None;
      injector = None;
      busy_until = Sim.Time.zero;
      transfers = 0;
      bytes_moved = 0;
      busy_time = Sim.Time.zero;
      injected_faults = 0;
      pending = Sim.Slot_ring.create make_pending;
      complete = no_completion;
    }
  in
  t.complete <-
    (complete t [@cdna.alloc_ok "one completion closure per engine, built once"]);
  t

(* The checks every transfer passes, in order: the physical range, the
   IOMMU, then fault injection. [true] admits the transfer; otherwise
   [k] gets its error, now or, for an injected fault that still occupies
   the bus, at completion time through a closure of its own. *)
let[@cdna.hot] admitted t ~op ~context ~addr ~len k =
  if not (in_range t ~addr ~len) then begin
    k (Error `Bad_range);
    false
  end
  else
    match iommu_check t ~context ~addr ~len with
    | Error e ->
        k (Error (e :> fault) [@cdna.alloc_ok "fault path, not steady state"]);
        false
    | Ok () ->
        if injected t ~context ~addr ~len then begin
          submit t ~op ~context ~len
            ((fun () -> k (Error `Injected))
            [@cdna.alloc_ok "fault path, not steady state"]);
          false
        end
        else true

let[@cdna.hot] read_into t ~context ~addr ~len ~dst ~pos k =
  if pos < 0 || len > Bytes.length dst - pos then k (Error `Bad_range)
  else if admitted t ~op:"read" ~context ~addr ~len k then
    enqueue t ~name:"read" ~context Read_into ~addr ~len ~buf:dst ~pos ~v0:0
      ~v1:0 k

let write t ~context ~addr ~data k =
  let len = Bytes.length data in
  if admitted t ~op:"write" ~context ~addr ~len k then
    submit t ~op:"write" ~context ~len (fun () ->
        Memory.Phys_mem.write t.mem ~addr data;
        k (Ok ()))

let[@cdna.hot] write_from t ~context ~addr ~src ~pos ~len k =
  if pos < 0 || len > Bytes.length src - pos then k (Error `Bad_range)
  else if admitted t ~op:"write" ~context ~addr ~len k then
    enqueue t ~name:"write" ~context Write_from ~addr ~len ~buf:src ~pos ~v0:0
      ~v1:0 k

let[@cdna.hot] write_u32_pair t ~context ~addr v0 v1 k =
  if admitted t ~op:"write" ~context ~addr ~len:8 k then
    enqueue t ~name:"write" ~context Write_pair ~addr ~len:8 ~buf:Bytes.empty
      ~pos:0 ~v0 ~v1 k

let[@cdna.hot] access t ~context ~addr ~len k =
  if admitted t ~op:"access" ~context ~addr ~len k then
    enqueue t ~name:"access" ~context Access ~addr ~len ~buf:Bytes.empty ~pos:0
      ~v0:0 ~v1:0 k

let injected_faults t = t.injected_faults

let register_metrics t m =
  Sim.Metrics.gauge m "dma.transfers" (fun () -> t.transfers);
  Sim.Metrics.gauge m "dma.bytes_moved" (fun () -> t.bytes_moved);
  Sim.Metrics.gauge m "dma.busy_ns" (fun () -> Sim.Time.to_ns t.busy_time);
  Sim.Metrics.gauge m "dma.injected_faults" (fun () -> t.injected_faults)
