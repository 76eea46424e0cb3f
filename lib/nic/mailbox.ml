let mailboxes_per_context = 24
let partition_bytes = 4096

type t = {
  n : int;
  (* Full partition contents, one int per 32-bit word. *)
  words : int array array;
  (* Per partition, a high-water mark: every word at or past it is 0.
     Context paging saves and scrubs only the prefix below it. *)
  marks : int array;
  mutable ctx_vector : int;
  box_vectors : int array;
  on_event : unit -> unit;
  mutable events : int;
}

let create ~contexts ~on_event =
  if contexts <= 0 || contexts > 62 then
    invalid_arg "Mailbox.create: contexts out of range";
  {
    n = contexts;
    words = Array.init contexts (fun _ -> Array.make (partition_bytes / 4) 0);
    marks = Array.make contexts 0;
    ctx_vector = 0;
    box_vectors = Array.make contexts 0;
    on_event;
    events = 0;
  }

let[@cdna.hot] check_ctx t ctx =
  if ctx < 0 || ctx >= t.n then invalid_arg "Mailbox: context out of range"

let check_mbox mbox =
  if mbox < 0 || mbox >= mailboxes_per_context then
    invalid_arg "Mailbox: mailbox index out of range"

(* Store word [w] of partition [ctx], keeping its high-water mark. *)
let store t ~ctx w v =
  t.words.(ctx).(w) <- v;
  if w >= t.marks.(ctx) then t.marks.(ctx) <- w + 1

let region t ~ctx =
  check_ctx t ctx;
  let words = t.words.(ctx) in
  Bus.Mmio.region ~size:partition_bytes
    ~read:(fun ~offset -> words.(offset / 4))
    ~write:(fun ~offset v ->
      let w = offset / 4 in
      store t ~ctx w v;
      if w < mailboxes_per_context then begin
        (* Snooping hardware: update the event hierarchy and fire. *)
        t.box_vectors.(ctx) <- t.box_vectors.(ctx) lor (1 lsl w);
        t.ctx_vector <- t.ctx_vector lor (1 lsl ctx);
        t.events <- t.events + 1;
        t.on_event ()
      end)

let value t ~ctx ~mbox =
  check_ctx t ctx;
  check_mbox mbox;
  t.words.(ctx).(mbox)

let poke t ~ctx ~mbox v =
  check_ctx t ctx;
  check_mbox mbox;
  store t ~ctx mbox v

let pending_contexts t = t.ctx_vector

let pending_boxes t ~ctx =
  check_ctx t ctx;
  t.box_vectors.(ctx)

let lowest_bit v =
  let rec scan i = if v land (1 lsl i) <> 0 then i else scan (i + 1) in
  if v = 0 then None else Some (scan 0)

let next_event t =
  match lowest_bit t.ctx_vector with
  | None -> None
  | Some ctx -> (
      match lowest_bit t.box_vectors.(ctx) with
      | Some mbox -> Some (ctx, mbox)
      | None -> None (* inconsistent hierarchy; unreachable *))

let clear_event t ~ctx ~mbox =
  check_ctx t ctx;
  check_mbox mbox;
  t.box_vectors.(ctx) <- t.box_vectors.(ctx) land lnot (1 lsl mbox);
  if t.box_vectors.(ctx) = 0 then
    t.ctx_vector <- t.ctx_vector land lnot (1 lsl ctx)

let[@cdna.hot] clear_context t ~ctx =
  check_ctx t ctx;
  t.box_vectors.(ctx) <- 0;
  t.ctx_vector <- t.ctx_vector land lnot (1 lsl ctx)

(* A per-guest save area, reused across page-outs: the first [len]
   words of [saved] hold the partition's written prefix. *)
type saved_partition = {
  mutable saved : int array;
  mutable len : int;
  mutable boxes : int;
}

let save_area () = { saved = [||]; len = 0; boxes = 0 }

let grow_area s n = s.saved <- Array.make (max n (2 * Array.length s.saved)) 0

let[@cdna.hot] save_partition t ~ctx s =
  check_ctx t ctx;
  let words = t.words.(ctx) and n = t.marks.(ctx) in
  if Array.length s.saved < n then
    (grow_area s n
    [@cdna.alloc_ok "save area grows to the longest prefix it holds, once"]);
  Array.blit words 0 s.saved 0 n;
  s.len <- n;
  s.boxes <- t.box_vectors.(ctx);
  (* Scrub the partition so the next resident guest cannot read the
     victim's words (page isolation), and drop its pending events from
     the live hierarchy — they travel with the save area. Every word
     past the mark is already 0. *)
  Array.fill words 0 n 0;
  t.marks.(ctx) <- 0;
  clear_context t ~ctx

let[@cdna.hot] restore_partition t ~ctx s =
  check_ctx t ctx;
  let words = t.words.(ctx) and n = s.len in
  Array.blit s.saved 0 words 0 n;
  (* The image is 0 past its prefix; so must the slot be. *)
  let mark = t.marks.(ctx) in
  if mark > n then Array.fill words n (mark - n) 0;
  t.marks.(ctx) <- n;
  if s.boxes <> 0 then begin
    t.box_vectors.(ctx) <- s.boxes;
    t.ctx_vector <- t.ctx_vector lor (1 lsl ctx);
    (* Re-arm the firmware's event processing for the restored pending
       mailboxes. The hardware-event counter is not bumped: no new PIO
       write happened. *)
    t.on_event ()
  end

let register_metrics t m ~labels =
  Sim.Metrics.gauge m ~labels "mailbox.events" (fun () -> t.events)
