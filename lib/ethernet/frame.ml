type kind = Data | Ack of int

type t = {
  src : Mac_addr.t;
  dst : Mac_addr.t;
  kind : kind;
  flow : int;
  seq : int;
  segments : int;
  payload_len : int;
  payload_seed : int;
  data : Bytes.t option;
}

let jumbo_limit = 9000

let make ~src ~dst ~kind ~flow ~seq ?(segments = 1) ~payload_len ~payload_seed
    () =
  if segments < 1 then invalid_arg "Frame.make: segments must be positive";
  if payload_len < 0 || payload_len > segments * jumbo_limit then
    invalid_arg "Frame.make: payload length out of range";
  { src; dst; kind; flow; seq; segments; payload_len; payload_seed; data = None }

let placeholder =
  make ~src:Mac_addr.broadcast ~dst:Mac_addr.broadcast ~kind:Data ~flow:0
    ~seq:0 ~payload_len:0 ~payload_seed:0 ()

(* xorshift-style byte stream; cheap and deterministic. All payload
   accessors below walk this one recurrence so the materialized, folded
   and blitted views of a spec are bytewise identical. *)
let[@inline] next_state s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17)

let blit_payload ~seed ~len dst ~pos =
  if pos < 0 || len < 0 || len > Bytes.length dst - pos then
    invalid_arg "Frame.blit_payload: bad bounds";
  let state = ref (seed lor 1) in
  for i = 0 to len - 1 do
    state := next_state !state;
    Bytes.unsafe_set dst (pos + i) (Char.unsafe_chr (!state land 0xff))
  done

let materialize_payload ~seed ~len =
  let b = Bytes.create len in
  blit_payload ~seed ~len b ~pos:0;
  b

let with_data t =
  { t with data = Some (materialize_payload ~seed:t.payload_seed ~len:t.payload_len) }

let data_valid t =
  match t.data with
  | None -> true
  | Some d ->
      Bytes.length d = t.payload_len
      && begin
           (* Compare against the spec stream in place: no 1500 B scratch
              per verified packet. *)
           let state = ref (t.payload_seed lor 1) in
           let ok = ref true in
           let i = ref 0 in
           while !ok && !i < t.payload_len do
             state := next_state !state;
             if Char.code (Bytes.unsafe_get d !i) <> !state land 0xff then
               ok := false;
             incr i
           done;
           !ok
         end

let overhead_bytes = 18
let min_payload = 46

let[@cdna.hot] wire_bytes t =
  (overhead_bytes * t.segments) + Int.max min_payload t.payload_len

(* Preamble+SFD (8) and inter-frame gap (12) occupy the wire as well,
   once per segment. *)
let wire_bits t = (wire_bytes t + (20 * t.segments)) * 8
