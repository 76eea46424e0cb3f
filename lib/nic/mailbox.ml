let mailboxes_per_context = 24
let partition_bytes = 4096

type t = {
  n : int;
  (* Full partition contents, one int per 32-bit word. *)
  words : int array array;
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
    ctx_vector = 0;
    box_vectors = Array.make contexts 0;
    on_event;
    events = 0;
  }

let check_ctx t ctx =
  if ctx < 0 || ctx >= t.n then invalid_arg "Mailbox: context out of range"

let check_mbox mbox =
  if mbox < 0 || mbox >= mailboxes_per_context then
    invalid_arg "Mailbox: mailbox index out of range"

let region t ~ctx =
  check_ctx t ctx;
  let words = t.words.(ctx) in
  Bus.Mmio.region ~size:partition_bytes
    ~read:(fun ~offset -> words.(offset / 4))
    ~write:(fun ~offset v ->
      let w = offset / 4 in
      words.(w) <- v;
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
  t.words.(ctx).(mbox) <- v

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

let clear_context t ~ctx =
  check_ctx t ctx;
  t.box_vectors.(ctx) <- 0;
  t.ctx_vector <- t.ctx_vector land lnot (1 lsl ctx)

type saved_partition = { saved_words : int array; saved_boxes : int }

let save_partition t ~ctx =
  check_ctx t ctx;
  let s =
    { saved_words = Array.copy t.words.(ctx); saved_boxes = t.box_vectors.(ctx) }
  in
  (* Scrub the partition so the next resident guest cannot read the
     victim's words (page isolation), and drop its pending events from
     the live hierarchy — they travel with the save area. *)
  Array.fill t.words.(ctx) 0 (Array.length t.words.(ctx)) 0;
  clear_context t ~ctx;
  s

let restore_partition t ~ctx s =
  check_ctx t ctx;
  Array.blit s.saved_words 0 t.words.(ctx) 0 (Array.length s.saved_words);
  if s.saved_boxes <> 0 then begin
    t.box_vectors.(ctx) <- s.saved_boxes;
    t.ctx_vector <- t.ctx_vector lor (1 lsl ctx);
    (* Re-arm the firmware's event processing for the restored pending
       mailboxes. The hardware-event counter is not bumped: no new PIO
       write happened. *)
    t.on_event ()
  end

let register_metrics t m ~labels =
  Sim.Metrics.gauge m ~labels "mailbox.events" (fun () -> t.events)
