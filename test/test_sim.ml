(* Tests for the discrete-event simulation substrate: Sim.Time, Sim.Heap,
   Sim.Fifo, Sim.Engine, Sim.Rng, Sim.Stats. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---------- Time ---------- *)

let test_time_units () =
  check_int "us" 1_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000 (Sim.Time.ms 1);
  check_int "sec" 1_000_000_000 (Sim.Time.sec 1);
  check_int "ns passthrough" 7 (Sim.Time.ns 7)

let test_time_float_conversions () =
  check_int "of_us_f" 2_500 (Sim.Time.of_us_f 2.5);
  check (Alcotest.float 1e-9) "to_sec_f" 0.25 (Sim.Time.to_sec_f (Sim.Time.ms 250))

let test_time_invalid_floats () =
  Alcotest.check_raises "negative" (Invalid_argument "Time.of_us_f: negative or non-finite")
    (fun () -> ignore (Sim.Time.of_us_f (-1.)));
  Alcotest.check_raises "nan"
    (Invalid_argument "Time.of_us_f: negative or non-finite") (fun () ->
      ignore (Sim.Time.of_us_f Float.nan))

let test_time_arith () =
  check_int "add" 30 (Sim.Time.add 10 20);
  check_int "sub" (-10) (Sim.Time.sub 10 20);
  check_int "diff clamps" 0 (Sim.Time.diff 10 20);
  check_int "diff" 10 (Sim.Time.diff 20 10);
  check_int "mul_int" 60 (Sim.Time.mul_int 20 3);
  check_int "div_int" 7 (Sim.Time.div_int 21 3)

let test_time_rates () =
  (* 12304 bits at 1 Gb/s = 12304 ns *)
  check_int "bits_time" 12304
    (Sim.Time.bits_time ~bits:12304 ~rate_bps:1_000_000_000)

let test_time_pp () =
  check Alcotest.string "ns" "42ns" (Sim.Time.to_string (Sim.Time.ns 42));
  check Alcotest.string "us" "1.500us" (Sim.Time.to_string (Sim.Time.ns 1_500));
  check Alcotest.string "s" "2.000s" (Sim.Time.to_string (Sim.Time.sec 2))

(* ---------- Heap ---------- *)

let test_heap_ordering () =
  let h = Sim.Heap.create ~dummy:0 () in
  List.iter (fun v -> Sim.Heap.push h ~key:v v) [ 5; 3; 8; 1; 9; 2 ];
  check_int "min_key_exn" 1 (Sim.Heap.min_key_exn h);
  let order = List.init 6 (fun _ -> Sim.Heap.pop_exn h) in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 8; 9 ] order

let test_heap_fifo_ties () =
  (* Equal keys must pop in insertion order (determinism). *)
  let h = Sim.Heap.create ~dummy:"" () in
  List.iter
    (fun (k, v) -> Sim.Heap.push h ~key:k v)
    [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let tags = List.init 4 (fun _ -> Sim.Heap.pop_exn h) in
  check (Alcotest.list Alcotest.string) "fifo" [ "z"; "a"; "b"; "c" ] tags

let test_heap_empty () =
  let h = Sim.Heap.create ~dummy:0 () in
  check_bool "empty" true (Sim.Heap.is_empty h);
  check_int "length zero" 0 (Sim.Heap.length h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Sim.Heap.pop_exn h));
  Alcotest.check_raises "min_key_exn"
    (Invalid_argument "Heap.min_key_exn: empty heap") (fun () ->
      ignore (Sim.Heap.min_key_exn h));
  (* Emptied by pops, the heap raises the same way: a pop never hands
     out the dummy. *)
  Sim.Heap.push h ~key:1 7;
  check_int "pop_exn" 7 (Sim.Heap.pop_exn h);
  check_bool "empty again" true (Sim.Heap.is_empty h);
  Alcotest.check_raises "pop_exn after drain"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Sim.Heap.pop_exn h))

let test_heap_fifo_after_slot_reuse () =
  (* Popped slots are reused last-freed first, so after churn the slot
     order no longer matches insertion order; equal keys must still pop
     in insertion order. *)
  let h = Sim.Heap.create ~dummy:0 () in
  for v = 1 to 6 do
    Sim.Heap.push h ~key:v v
  done;
  for _ = 1 to 4 do
    ignore (Sim.Heap.pop_exn h)
  done;
  List.iter (fun v -> Sim.Heap.push h ~key:10 v) [ 100; 101; 102; 103; 104 ];
  let out = List.init 7 (fun _ -> Sim.Heap.pop_exn h) in
  check (Alcotest.list Alcotest.int) "fifo among equal keys"
    [ 5; 6; 100; 101; 102; 103; 104 ] out

let test_heap_cap () =
  (* [max_entries] bounds the pending entries; a push past it raises
     and leaves the heap as it was. *)
  Alcotest.check_raises "non-positive cap"
    (Invalid_argument "Heap.create: non-positive max_entries") (fun () ->
      ignore (Sim.Heap.create ~max_entries:0 ~dummy:0 ()));
  let h = Sim.Heap.create ~max_entries:3 ~dummy:0 () in
  List.iter (fun v -> Sim.Heap.push h ~key:v v) [ 3; 1; 2 ];
  Alcotest.check_raises "push past cap"
    (Invalid_argument "Heap: too many pending entries") (fun () ->
      Sim.Heap.push h ~key:0 0);
  check_int "length unchanged" 3 (Sim.Heap.length h);
  check_int "min unchanged" 1 (Sim.Heap.min_key_exn h);
  let out = List.init 3 (fun _ -> Sim.Heap.pop_exn h) in
  check (Alcotest.list Alcotest.int) "contents unchanged" [ 1; 2; 3 ] out;
  (* Below the cap again, pushes succeed. *)
  Sim.Heap.push h ~key:4 4;
  check_int "refilled" 4 (Sim.Heap.pop_exn h)

let test_heap_exn_accessors () =
  (* [min_key_exn] reads the minimum without popping it. *)
  let h = Sim.Heap.create ~dummy:0 () in
  List.iter (fun v -> Sim.Heap.push h ~key:v v) [ 7; 4; 6 ];
  check_int "min_key_exn" 4 (Sim.Heap.min_key_exn h);
  check_int "min_key_exn does not pop" 3 (Sim.Heap.length h);
  check_int "pop_exn" 4 (Sim.Heap.pop_exn h);
  check_int "next min" 6 (Sim.Heap.min_key_exn h)

(* Out-of-line so the test body holds no local root to the pushed value;
   only the heap's internal array could keep it alive after the pop. *)
let[@inline never] heap_push_pop_tracked h w =
  let v = Bytes.create 64 in
  Weak.set w 0 (Some v);
  Sim.Heap.push h ~key:1 v;
  ignore (Sim.Heap.pop_exn h)

let test_heap_no_pin () =
  (* Popping must release the heap's reference to the value: the vacated
     array slot is overwritten with the dummy, so a popped payload is
     collectable even while the heap object stays live. *)
  let h = Sim.Heap.create ~dummy:Bytes.empty () in
  let w = Weak.create 1 in
  heap_push_pop_tracked h w;
  Gc.full_major ();
  check_bool "heap retains popped value" false (Weak.check w 0);
  (* Keep [h] live past the GC so retention would have been observable. *)
  check_int "heap empty after pop" 0 (Sim.Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops any int list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Sim.Heap.create ~dummy:0 () in
      List.iter (fun v -> Sim.Heap.push h ~key:v v) xs;
      let out = List.init (List.length xs) (fun _ -> Sim.Heap.pop_exn h) in
      out = List.sort Int.compare xs)

(* ---------- Fifo ---------- *)

type fifo_op =
  | Push of int
  | Push_run of int (* that many pushes: crosses chunk boundaries *)
  | Pop
  | Pop_run of int
  | Peek
  | Clear
  | To_aux (* transfer main -> aux *)
  | From_aux (* transfer aux -> main *)

let fifo_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun x -> Push x) small_int);
        (2, map (fun n -> Push_run n) (int_range 1 150));
        (4, return Pop);
        (2, map (fun n -> Pop_run n) (int_range 1 150));
        (2, return Peek);
        (1, return Clear);
        (1, return To_aux);
        (1, return From_aux);
      ])

let fifo_op_print = function
  | Push x -> Printf.sprintf "Push %d" x
  | Push_run n -> Printf.sprintf "Push_run %d" n
  | Pop -> "Pop"
  | Pop_run n -> Printf.sprintf "Pop_run %d" n
  | Peek -> "Peek"
  | Clear -> "Clear"
  | To_aux -> "To_aux"
  | From_aux -> "From_aux"

(* Every operation, run on a [Sim.Fifo] pair and a [Stdlib.Queue] pair,
   returns the same values and leaves the same contents, as read by
   [length], [iter] and [to_seq]. Runs of up to 150 pushes and pops move
   the head and tail across 64-slot chunks and through the spare. *)
let prop_fifo_matches_queue =
  QCheck.Test.make ~name:"fifo matches Stdlib.Queue" ~count:300
    QCheck.(
      make
        ~print:Print.(list fifo_op_print)
        Gen.(list_size (int_range 1 200) fifo_op_gen))
    (fun ops ->
      let f = Sim.Fifo.create ~dummy:(-1) and aux = Sim.Fifo.create ~dummy:(-1) in
      let q = Queue.create () and qaux = Queue.create () in
      let next = ref 0 in
      let pop_both () =
        let a = if Sim.Fifo.is_empty f then None else Some (Sim.Fifo.pop f) in
        a = Queue.take_opt q
      in
      let same_contents f q =
        let via_iter = ref [] in
        Sim.Fifo.iter (fun x -> via_iter := x :: !via_iter) f;
        let expected = List.of_seq (Queue.to_seq q) in
        Sim.Fifo.length f = Queue.length q
        && Sim.Fifo.is_empty f = Queue.is_empty q
        && List.rev !via_iter = expected
        && List.of_seq (Sim.Fifo.to_seq f) = expected
      in
      List.for_all
        (fun op ->
          let result =
            match op with
            | Push x ->
                Sim.Fifo.push f x;
                Queue.push x q;
                true
            | Push_run n ->
                for _ = 1 to n do
                  incr next;
                  Sim.Fifo.push f !next;
                  Queue.push !next q
                done;
                true
            | Pop -> pop_both ()
            | Pop_run n -> List.for_all pop_both (List.init n (fun _ -> ()))
            | Peek ->
                (if Sim.Fifo.is_empty f then None else Some (Sim.Fifo.peek f))
                = Queue.peek_opt q
            | Clear ->
                Sim.Fifo.clear f;
                Queue.clear q;
                true
            | To_aux ->
                Sim.Fifo.transfer f aux;
                Queue.transfer q qaux;
                true
            | From_aux ->
                Sim.Fifo.transfer aux f;
                Queue.transfer qaux q;
                true
          in
          result && same_contents f q && same_contents aux qaux)
        ops)

let test_fifo_empty () =
  let f = Sim.Fifo.create ~dummy:0 in
  Alcotest.check_raises "pop" (Invalid_argument "Fifo.pop: empty queue")
    (fun () -> ignore (Sim.Fifo.pop f));
  Alcotest.check_raises "peek" (Invalid_argument "Fifo.peek: empty queue")
    (fun () -> ignore (Sim.Fifo.peek f));
  Sim.Fifo.push f 1;
  check_int "pop" 1 (Sim.Fifo.pop f);
  Alcotest.check_raises "pop after drain"
    (Invalid_argument "Fifo.pop: empty queue") (fun () ->
      ignore (Sim.Fifo.pop f))

(* Out-of-line, like [heap_push_pop_tracked]: only the FIFO's slots could
   keep the popped block alive. *)
let[@inline never] fifo_push_pop_tracked f w =
  let v = Bytes.create 64 in
  Weak.set w 0 (Some v);
  Sim.Fifo.push f v;
  Sim.Fifo.push f (Bytes.create 1);
  ignore (Sim.Fifo.pop f)

let test_fifo_no_pin () =
  (* The FIFO stays non-empty and live, so the popped block's chunk is
     still in use: only the dummy written over its slot releases it. *)
  let f = Sim.Fifo.create ~dummy:Bytes.empty in
  let w = Weak.create 1 in
  fifo_push_pop_tracked f w;
  Gc.full_major ();
  check_bool "fifo retains popped value" false (Weak.check w 0);
  check_int "the other block stays queued" 1 (Sim.Fifo.length f)

(* Words promoted while [n] fresh blocks cycle through a queue that
   [push]/[pop] keep [depth] deep, with a forced minor collection every
   [every] cycles. *)
let promoted_by_cycle ~push ~pop ~n ~depth ~every =
  for i = 1 to depth do
    push (ref i)
  done;
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to n do
    push (ref i);
    ignore (pop ());
    if i mod every = 0 then Gc.minor ()
  done;
  (Gc.quick_stat ()).Gc.promoted_words -. before

let test_fifo_promotes_only_queued () =
  (* A [ref] is 2 words with its header. Each forced minor collection
     may promote the [depth] blocks still queued, never the ones already
     popped. [Stdlib.Queue]'s figure, printed beside it, is every block
     with its cell. *)
  let n = 100_000 and depth = 16 and every = 1_000 in
  let f = Sim.Fifo.create ~dummy:(ref 0) in
  let fifo =
    promoted_by_cycle ~n ~depth ~every
      ~push:(Sim.Fifo.push f)
      ~pop:(fun () -> Sim.Fifo.pop f)
  in
  let q = Queue.create () in
  let queue =
    promoted_by_cycle ~n ~depth ~every
      ~push:(fun x -> Queue.push x q)
      ~pop:(fun () -> Queue.pop q)
  in
  Printf.printf "promoted words over %d cycles: Sim.Fifo %.0f, Stdlib.Queue %.0f\n"
    n fifo queue;
  let bound = float_of_int (n / every * depth * 2 * 2) in
  check_bool
    (Printf.sprintf "fifo promoted %.0f words, at most %.0f" fifo bound)
    true (fifo <= bound)

let test_fifo_steady_cycle_allocates_nothing () =
  (* Once the two chunks a cycling queue needs exist, the drained one
     is reused as the spare. *)
  let f = Sim.Fifo.create ~dummy:0 in
  for i = 1 to 100 do
    Sim.Fifo.push f i
  done;
  for i = 1 to 200 do
    Sim.Fifo.push f i;
    ignore (Sim.Fifo.pop f)
  done;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Sim.Fifo.push f i;
    ignore (Sim.Fifo.pop f)
  done;
  check (Alcotest.float 0.) "minor words" 0. (Gc.minor_words () -. before)

(* ---------- Engine ---------- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:30 (fun () -> log := 30 :: !log);
  Sim.Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log);
  Sim.Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log);
  ignore (Sim.Engine.run_to_completion e);
  check (Alcotest.list Alcotest.int) "order" [ 10; 20; 30 ] (List.rev !log)

let test_engine_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~delay:100 (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run_to_completion e);
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_time_advances () =
  let e = Sim.Engine.create () in
  let seen = ref (-1) in
  Sim.Engine.schedule e ~delay:500 (fun () -> seen := Sim.Engine.now e);
  ignore (Sim.Engine.run_to_completion e);
  check_int "time at fire" 500 !seen;
  check_int "now after" 500 (Sim.Engine.now e)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(i * 10) (fun () -> incr count)
  done;
  Sim.Engine.run e ~until:50;
  check_int "five fired" 5 !count;
  check_int "clock at until" 50 (Sim.Engine.now e);
  Sim.Engine.run e ~until:200;
  check_int "rest fired" 10 !count

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:10 (fun () ->
      log := `A :: !log;
      Sim.Engine.schedule e ~delay:5 (fun () -> log := `B :: !log));
  ignore (Sim.Engine.run_to_completion e);
  check_int "both fired" 2 (List.length !log);
  check_int "final time" 15 (Sim.Engine.now e)

let test_engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:10 (fun () -> ());
  ignore (Sim.Engine.run_to_completion e);
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Sim.Engine.schedule_at e 5 (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule e ~delay:(-1) (fun () -> ()))

(* An engine with its gauges on a fresh registry, so a test reads its
   counters the way [Run] does. *)
let engine_with_metrics ?max_pending () =
  let e = Sim.Engine.create ?max_pending () in
  let m = Sim.Metrics.create () in
  Sim.Engine.register_metrics e m;
  (e, m)

let test_engine_event_limit () =
  let e, m = engine_with_metrics () in
  (* Self-perpetuating event chain. *)
  let rec loop () = Sim.Engine.schedule e ~delay:1 loop in
  loop ();
  match Sim.Engine.run_to_completion ~limit:100 e with
  | `Event_limit -> check_int "fired" 100 (Sim.Metrics.sum m "engine.fired")
  | `Completed -> Alcotest.fail "should have hit the limit"

let test_engine_pending_gauge () =
  (* [engine.pending] reads the queue length: every scheduled event is
     counted until it fires. *)
  let e, m = engine_with_metrics () in
  let pending () = List.assoc "engine.pending" (Sim.Metrics.snapshot m) in
  let gauge_is label n = check_bool label true (pending () = Sim.Json.Int n) in
  gauge_is "empty" 0;
  Sim.Engine.schedule e ~delay:10 (fun () ->
      gauge_is "firing event already counted out" 1;
      Sim.Engine.schedule e ~delay:5 ignore);
  Sim.Engine.schedule e ~delay:20 ignore;
  gauge_is "two scheduled" 2;
  Sim.Engine.run e ~until:12;
  gauge_is "one fired, one added" 2;
  check_int "sum agrees" 2 (Sim.Metrics.sum m "engine.pending");
  ignore (Sim.Engine.run_to_completion e);
  gauge_is "drained" 0;
  check_bool "fired gauge" true
    (List.assoc "engine.fired" (Sim.Metrics.snapshot m) = Sim.Json.Int 3)

(* ---------- Engine accounting ---------- *)

(* An event exactly at the horizon fires, one beyond it does not. *)
let test_drain_horizon_inclusive () =
  let e, m = engine_with_metrics () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:(Sim.Time.ns 50) (fun () -> log := 50 :: !log);
  Sim.Engine.schedule e ~delay:(Sim.Time.ns 51) (fun () -> log := 51 :: !log);
  Sim.Engine.run e ~until:(Sim.Time.ns 50);
  check (Alcotest.list Alcotest.int) "at-horizon fires" [ 50 ] !log;
  check_int "beyond-horizon pends" 1 (Sim.Metrics.sum m "engine.pending")

(* A schedule rejected by the heap cap must leave the pending count and
   the queue untouched. *)
let test_heap_full_pending_consistency () =
  let e, m = engine_with_metrics ~max_pending:4 () in
  let pending () = Sim.Metrics.sum m "engine.pending" in
  for _ = 1 to 4 do
    Sim.Engine.schedule e ~delay:(Sim.Time.ns 5) (fun () -> ())
  done;
  check_int "at cap" 4 (pending ());
  (try
     Sim.Engine.schedule e ~delay:(Sim.Time.ns 5) (fun () -> ());
     Alcotest.fail "expected Invalid_argument on heap-full schedule"
   with Invalid_argument _ -> ());
  check_int "pending unchanged after failed schedule" 4 (pending ());
  (* The engine must still be fully usable: drain and refill. *)
  ignore (Sim.Engine.run_to_completion e);
  check_int "drained" 0 (pending ());
  for _ = 1 to 4 do
    Sim.Engine.schedule e ~delay:(Sim.Time.ns 5) (fun () -> ())
  done;
  check_int "refillable to cap" 4 (pending ())

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.int64 a = Sim.Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.int64 a <> Sim.Rng.int64 b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_rng_bounds () =
  let r = Sim.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_rng_float_range () =
  let r = Sim.Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.float r 2.5 in
    check_bool "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create ~seed:9 in
  let child = Sim.Rng.split parent in
  check_bool "different values" true (Sim.Rng.int64 parent <> Sim.Rng.int64 child)

(* ---------- Stats ---------- *)

let test_histogram () =
  let h = Sim.Stats.Histogram.create () in
  List.iter (Sim.Stats.Histogram.add h) [ 1; 2; 4; 100; 1000 ];
  check_int "count" 5 (Sim.Stats.Histogram.count h);
  check_int "max" 1000 (Sim.Stats.Histogram.max_value h);
  check_int "min" 1 (Sim.Stats.Histogram.min_value h);
  check (Alcotest.float 1e-6) "mean" 221.4 (Sim.Stats.Histogram.mean h);
  check_bool "p50 below p99" true
    (Sim.Stats.Histogram.percentile h 50. <= Sim.Stats.Histogram.percentile h 99.)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 100_000))
    (fun xs ->
      let h = Sim.Stats.Histogram.create () in
      List.iter (Sim.Stats.Histogram.add h) xs;
      let p25 = Sim.Stats.Histogram.percentile h 25. in
      let p50 = Sim.Stats.Histogram.percentile h 50. in
      let p99 = Sim.Stats.Histogram.percentile h 99. in
      p25 <= p50 && p50 <= p99)

(* [Stats.log2_floor] against the bit-at-a-time loop it replaced. *)
let log2_floor_ref v =
  let rec scan v acc = if v <= 1 then acc else scan (v lsr 1) (acc + 1) in
  scan v 0

let test_log2_floor_edges () =
  let agree v =
    check_int (Printf.sprintf "log2_floor %d" v) (log2_floor_ref v)
      (Sim.Stats.log2_floor v)
  in
  List.iter agree [ 0; 1; max_int; -1; min_int ];
  for k = 1 to Sys.int_size - 2 do
    agree ((1 lsl k) - 1);
    agree (1 lsl k);
    check_int (Printf.sprintf "log2_floor 2^%d" k) k
      (Sim.Stats.log2_floor (1 lsl k))
  done

let prop_log2_floor_matches_reference =
  QCheck.Test.make ~name:"log2_floor matches the bit-by-bit loop" ~count:1000
    QCheck.(
      oneof
        [
          int;
          (* spread over every bit width, not just the top few *)
          map (fun (v, k) -> v lsr k) (pair int (int_range 0 62));
        ])
    (fun v -> Sim.Stats.log2_floor v = log2_floor_ref v)

(* Regression: p=0 must be exactly the smallest recorded value, not the
   lower edge of bucket 0.  With a single sample of 100, the old scan
   started at bucket 0 and returned 0. *)
let test_histogram_p0_is_min () =
  let h = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add h 100;
  check_int "p0 = min" 100 (Sim.Stats.Histogram.percentile h 0.);
  check_int "negative p clamps to min" 100 (Sim.Stats.Histogram.percentile h (-5.));
  Sim.Stats.Histogram.add h 7;
  Sim.Stats.Histogram.add h 5000;
  check_int "p0 tracks new min" 7 (Sim.Stats.Histogram.percentile h 0.);
  check_bool "p0 <= p50" true
    (Sim.Stats.Histogram.percentile h 0. <= Sim.Stats.Histogram.percentile h 50.)

(* ---------- Json ---------- *)

let test_json_print () =
  let j =
    Sim.Json.Obj
      [
        ("a", Sim.Json.Int 1);
        ("b", Sim.Json.List [ Sim.Json.Bool true; Sim.Json.Null ]);
        ("c", Sim.Json.String "x\"y\n");
        ("d", Sim.Json.Float 1.5);
      ]
  in
  check Alcotest.string "compact"
    {|{"a":1,"b":[true,null],"c":"x\"y\n","d":1.5}|}
    (Sim.Json.to_string j)

let test_json_roundtrip () =
  let j =
    Sim.Json.Obj
      [
        ("n", Sim.Json.Int (-42));
        ("f", Sim.Json.Float 3.25);
        ("s", Sim.Json.String "hello \\ world");
        ("l", Sim.Json.List [ Sim.Json.Int 0; Sim.Json.Obj [] ]);
      ]
  in
  let text = Sim.Json.to_string j in
  match Sim.Json.parse text with
  | Ok j' -> check Alcotest.string "reprint equal" text (Sim.Json.to_string j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Sim.Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    bad

(* ---------- Metrics ---------- *)

let test_metrics_get_or_create () =
  let m = Sim.Metrics.create () in
  let h1 = Sim.Metrics.histogram m "hits" ~labels:[ ("x", "1"); ("a", "2") ] in
  (* Same name, same labels in a different order: same underlying series. *)
  let h2 = Sim.Metrics.histogram m "hits" ~labels:[ ("a", "2"); ("x", "1") ] in
  Sim.Stats.Histogram.add h1 1;
  Sim.Stats.Histogram.add h2 1;
  check_int "shared" 2 (Sim.Stats.Histogram.count h1);
  check_int "one series" 1 (Sim.Metrics.size m)

let test_metrics_kind_mismatch () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.gauge m "thing" ~labels:[] (fun () -> 0);
  match Sim.Metrics.histogram m "thing" ~labels:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"

let test_metrics_json_sorted_deterministic () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.gauge m "z.last" ~labels:[] (fun () -> 3);
  Sim.Metrics.gauge m "a.first" ~labels:[ ("dom", "1") ] (fun () -> 1);
  Sim.Metrics.gauge_f m "m.mid" ~labels:[] (fun () -> 2.5);
  let s1 = Sim.Json.to_string (Sim.Metrics.to_json m) in
  let s2 = Sim.Json.to_string (Sim.Metrics.to_json m) in
  check Alcotest.string "stable" s1 s2;
  check Alcotest.string "sorted keys"
    {|{"a.first{dom=1}":1,"m.mid":2.5,"z.last":3}|} s1

let test_metrics_histogram_export () =
  let m = Sim.Metrics.create () in
  let h = Sim.Metrics.histogram m "lat" ~labels:[] in
  List.iter (Sim.Stats.Histogram.add h) [ 10; 20; 30 ];
  match Sim.Json.parse (Sim.Json.to_string (Sim.Metrics.to_json m)) with
  | Ok j -> (
      match Sim.Json.member "lat" j with
      | Some lat ->
          check_bool "has count=3" true
            (Sim.Json.member "count" lat = Some (Sim.Json.Int 3))
      | None -> Alcotest.fail "lat series missing")
  | Error e -> Alcotest.failf "metrics JSON unparseable: %s" e

let test_metrics_sum () =
  let m = Sim.Metrics.create () in
  check_int "absent reads 0" 0 (Sim.Metrics.sum m "nic.faults");
  Sim.Metrics.gauge m "nic.faults" ~labels:[ ("nic", "a") ] (fun () -> 2);
  Sim.Metrics.gauge m "nic.faults" ~labels:[ ("nic", "b") ] (fun () -> 5);
  Sim.Metrics.gauge m "nic.faults" ~labels:[] (fun () -> 1);
  (* Same prefix, different names: never part of the sum. *)
  Sim.Metrics.gauge m "nic.faults_x" ~labels:[] (fun () -> 100);
  Sim.Metrics.gauge m "nic.fault" ~labels:[] (fun () -> 100);
  Sim.Metrics.gauge m "nic" ~labels:[] (fun () -> 100);
  Sim.Metrics.gauge_f m "nic.faults" ~labels:[ ("nic", "f") ] (fun () -> 7.);
  let h = Sim.Metrics.histogram m "nic.faults" ~labels:[ ("nic", "h") ] in
  Sim.Stats.Histogram.add h 9;
  check_int "integer gauges across labels" 8 (Sim.Metrics.sum m "nic.faults");
  check_int "full key reads one series" 5
    (Sim.Metrics.sum m "nic.faults{nic=b}");
  check_int "unlabelled key" 100 (Sim.Metrics.sum m "nic.faults_x")

(* [sum] walks the table in place: what it allocates does not grow with
   the number of series it visits. *)
let test_metrics_sum_alloc () =
  let words_for series =
    let m = Sim.Metrics.create () in
    for i = 1 to series do
      Sim.Metrics.gauge m "g" ~labels:[ ("i", string_of_int i) ] (fun () -> i)
    done;
    ignore (Sim.Metrics.sum m "g");
    let before = Gc.minor_words () in
    ignore (Sim.Metrics.sum m "g");
    Gc.minor_words () -. before
  in
  check (Alcotest.float 0.) "same words for 10 and 1000 series"
    (words_for 10) (words_for 1000)

(* ---------- Trace recorder / Chrome export ---------- *)

(* Golden test: a tiny hand-built recording must serialize to exactly this
   Chrome trace_event JSON, byte for byte. *)
let test_recorder_chrome_golden () =
  let r = Sim.Trace.Recorder.create () in
  Sim.Trace.set_sink (Some (Sim.Trace.Recorder.sink r));
  Sim.Trace.Recorder.set_process_name r ~pid:0 "hypervisor";
  Sim.Trace.instant ~time:(Sim.Time.us 1) ~tag:"hypercall" ~pid:1
    ~args:[ ("cost_ns", Sim.Trace.Int 700) ]
    "grant_map";
  Sim.Trace.complete ~time:(Sim.Time.us 2) ~dur:(Sim.Time.us 3) ~tag:"sched"
    ~pid:2 ~tid:4 "guest0";
  Sim.Trace.set_sink None;
  let expected =
    {|{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"hypervisor"}},{"name":"grant_map","cat":"hypercall","ph":"i","ts":1,"s":"t","pid":1,"tid":0,"args":{"cost_ns":700}},{"name":"guest0","cat":"sched","ph":"X","ts":2,"dur":3,"pid":2,"tid":4}],"displayTimeUnit":"ms"}|}
  in
  check Alcotest.string "golden chrome json" expected
    (Sim.Trace.Recorder.to_chrome_string r)

let test_recorder_file_roundtrip () =
  let r = Sim.Trace.Recorder.create () in
  Sim.Trace.set_sink (Some (Sim.Trace.Recorder.sink r));
  Sim.Trace.instant ~time:0 ~tag:"irq" "virq";
  Sim.Trace.set_sink None;
  let path = Filename.temp_file "cdna_trace" ".json" in
  let oc = open_out path in
  output_string oc (Sim.Trace.Recorder.to_chrome_string r);
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Sim.Json.parse text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "written trace file unparseable: %s" e

(* ---------- Fault_inject ---------- *)

module FI = Sim.Fault_inject

let bool_series = Alcotest.list Alcotest.bool

let test_fi_trigger_semantics () =
  let fi = FI.create ~seed:1 in
  FI.arm fi ~site:"always" (FI.plan FI.Always);
  FI.arm fi ~site:"once" (FI.plan FI.One_shot);
  FI.arm fi ~site:"third" (FI.plan (FI.Nth 3));
  FI.arm fi ~site:"even" (FI.plan (FI.Every_nth 2));
  let series site = List.init 6 (fun _ -> FI.fire fi ~site ()) in
  check bool_series "always" [ true; true; true; true; true; true ]
    (series "always");
  check bool_series "one shot" [ true; false; false; false; false; false ]
    (series "once");
  check bool_series "nth 3" [ false; false; true; false; false; false ]
    (series "third");
  check bool_series "every 2nd" [ false; true; false; true; false; true ]
    (series "even");
  check_int "observed" 6 (FI.observed fi ~site:"always");
  check_int "injected" 1 (FI.injected fi ~site:"once");
  check_int "total across sites" 11 (FI.total_injected fi)

let test_fi_filters () =
  let fi = FI.create ~seed:1 in
  FI.arm fi ~site:"s" (FI.plan ~ctx:(2, 4) FI.Always);
  check_bool "ctx in range" true (FI.fire fi ~site:"s" ~ctx:3 ());
  check_bool "ctx below" false (FI.fire fi ~site:"s" ~ctx:1 ());
  check_bool "ctx above" false (FI.fire fi ~site:"s" ~ctx:5 ());
  (* An event without the attribute never matches a filtering plan. *)
  check_bool "no ctx attribute" false (FI.fire fi ~site:"s" ());
  FI.arm fi ~site:"a" (FI.plan ~addr:(4096, 8191) FI.Always);
  check_bool "addr in range" true (FI.fire fi ~site:"a" ~addr:4096 ());
  check_bool "addr out of range" false (FI.fire fi ~site:"a" ~addr:8192 ());
  check_bool "unarmed site" false (FI.fire fi ~site:"other" ())

let test_fi_determinism () =
  let series seed =
    let fi = FI.create ~seed in
    FI.arm fi ~site:"p" (FI.plan (FI.Probability 0.3));
    List.init 200 (fun _ -> FI.fire fi ~site:"p" ())
  in
  check bool_series "same seed, same stream" (series 42) (series 42);
  check_bool "different seed differs" true (series 1 <> series 2);
  (* Plans draw from private split-off streams: firing another plan
     between events must not perturb the decisions. *)
  let interleaved =
    let fi = FI.create ~seed:42 in
    FI.arm fi ~site:"p" (FI.plan (FI.Probability 0.3));
    FI.arm fi ~site:"q" (FI.plan (FI.Probability 0.9));
    List.init 200 (fun _ ->
        ignore (FI.fire fi ~site:"q" ());
        FI.fire fi ~site:"p" ())
  in
  check bool_series "other plans do not perturb" (series 42) interleaved

let test_fi_plan_validation () =
  Alcotest.check_raises "empty ctx range"
    (Invalid_argument "Fault_inject.plan: empty ctx range") (fun () ->
      ignore (FI.plan ~ctx:(5, 4) FI.Always));
  Alcotest.check_raises "empty addr range"
    (Invalid_argument "Fault_inject.plan: empty addr range") (fun () ->
      ignore (FI.plan ~addr:(1, 0) FI.Always));
  Alcotest.check_raises "nth < 1"
    (Invalid_argument "Fault_inject.plan: n must be >= 1") (fun () ->
      ignore (FI.plan (FI.Nth 0)));
  Alcotest.check_raises "every_nth < 1"
    (Invalid_argument "Fault_inject.plan: n must be >= 1") (fun () ->
      ignore (FI.plan (FI.Every_nth 0)));
  Alcotest.check_raises "probability > 1"
    (Invalid_argument "Fault_inject.plan: probability outside [0, 1]")
    (fun () -> ignore (FI.plan (FI.Probability 1.5)));
  Alcotest.check_raises "probability < 0"
    (Invalid_argument "Fault_inject.plan: probability outside [0, 1]")
    (fun () -> ignore (FI.plan (FI.Probability (-0.1))))

let prop_fi_every_nth_rate =
  QCheck.Test.make ~name:"every_nth injects exactly floor(events/n) times"
    ~count:100
    QCheck.(pair (int_range 1 20) (int_range 0 200))
    (fun (n, events) ->
      let fi = FI.create ~seed:5 in
      FI.arm fi ~site:"s" (FI.plan (FI.Every_nth n));
      for _ = 1 to events do
        ignore (FI.fire fi ~site:"s" ())
      done;
      FI.injected fi ~site:"s" = events / n
      && FI.observed fi ~site:"s" = events)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "sim.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "float conversions" `Quick test_time_float_conversions;
        Alcotest.test_case "invalid floats" `Quick test_time_invalid_floats;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "rates" `Quick test_time_rates;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "fifo after slot reuse" `Quick
          test_heap_fifo_after_slot_reuse;
        Alcotest.test_case "cap" `Quick test_heap_cap;
        Alcotest.test_case "exn accessors" `Quick test_heap_exn_accessors;
        Alcotest.test_case "pop releases value" `Quick test_heap_no_pin;
        qcheck prop_heap_sorts;
      ] );
    ( "sim.fifo",
      [
        qcheck prop_fifo_matches_queue;
        Alcotest.test_case "empty" `Quick test_fifo_empty;
        Alcotest.test_case "pop releases value" `Quick test_fifo_no_pin;
        Alcotest.test_case "promotes only what is queued" `Quick
          test_fifo_promotes_only_queued;
        Alcotest.test_case "steady cycle allocates nothing" `Quick
          test_fifo_steady_cycle_allocates_nothing;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "ordering" `Quick test_engine_ordering;
        Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "time advances" `Quick test_engine_time_advances;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        Alcotest.test_case "event limit" `Quick test_engine_event_limit;
        Alcotest.test_case "pending gauge" `Quick test_engine_pending_gauge;
      ] );
    ( "sim.engine.accounting",
      [
        Alcotest.test_case "horizon inclusive for live events" `Quick
          test_drain_horizon_inclusive;
        Alcotest.test_case "heap-full keeps pending consistent" `Quick
          test_heap_full_pending_consistency;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_bounds;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "histogram p0 is min" `Quick test_histogram_p0_is_min;
        qcheck prop_histogram_percentile_monotone;
        Alcotest.test_case "log2_floor edges" `Quick test_log2_floor_edges;
        qcheck prop_log2_floor_matches_reference;
      ] );
    ( "sim.json",
      [
        Alcotest.test_case "print" `Quick test_json_print;
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
      ] );
    ( "sim.metrics",
      [
        Alcotest.test_case "get-or-create" `Quick test_metrics_get_or_create;
        Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "json sorted deterministic" `Quick
          test_metrics_json_sorted_deterministic;
        Alcotest.test_case "histogram export" `Quick test_metrics_histogram_export;
        Alcotest.test_case "sum" `Quick test_metrics_sum;
        Alcotest.test_case "sum allocation" `Quick test_metrics_sum_alloc;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "chrome golden" `Quick test_recorder_chrome_golden;
        Alcotest.test_case "file roundtrip" `Quick test_recorder_file_roundtrip;
      ] );
    ( "sim.fault_inject",
      [
        Alcotest.test_case "trigger semantics" `Quick test_fi_trigger_semantics;
        Alcotest.test_case "ctx/addr filters" `Quick test_fi_filters;
        Alcotest.test_case "determinism" `Quick test_fi_determinism;
        Alcotest.test_case "plan validation" `Quick test_fi_plan_validation;
        qcheck prop_fi_every_nth_rate;
      ] );
  ]
