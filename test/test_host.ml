(* Tests for the host CPU substrate: categories, profile accounting, and
   the credit scheduler. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let us = Sim.Time.us

let make_cpu ?cpus ?ctx_switch_cost ?slice ?migration_cost () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu =
    Host.Cpu.create engine ?cpus ?ctx_switch_cost ?slice ?migration_cost
      ~profile ()
  in
  (engine, profile, cpu)

let run_for engine t = Sim.Engine.run engine ~until:t

(* The scheduler's gauges on a fresh registry, registered once the
   entities exist (as [Testbed.build] does): tests read its counters
   there. *)
let metrics_of cpu =
  let m = Sim.Metrics.create () in
  Host.Cpu.register_metrics cpu m;
  m

let entity_key series e =
  Printf.sprintf "%s{domain=%d,entity=%s}" series (Host.Cpu.domain_of e)
    (Host.Cpu.name_of e)

let runtime_ns m e = Sim.Metrics.sum m (entity_key "cpu.entity.runtime_ns" e)

let credits_us m e =
  match
    List.assoc (entity_key "cpu.entity.credits_us" e) (Sim.Metrics.snapshot m)
  with
  | Sim.Json.Float f -> f
  | _ -> Alcotest.fail "cpu.entity.credits_us is not a float series"

(* ---------- Category ---------- *)

let test_category_equal () =
  check_bool "hyp = hyp" true Host.Category.(equal Hypervisor Hypervisor);
  check_bool "kernel same dom" true Host.Category.(equal (Kernel 1) (Kernel 1));
  check_bool "kernel diff dom" false Host.Category.(equal (Kernel 1) (Kernel 2));
  check_bool "kernel vs user" false Host.Category.(equal (Kernel 1) (User 1));
  check_bool "idle" true Host.Category.(equal Idle Idle)

let test_category_domain () =
  check Alcotest.(option int) "kernel" (Some 3) (Host.Category.domain (Kernel 3));
  check Alcotest.(option int) "user" (Some 4) (Host.Category.domain (User 4));
  check Alcotest.(option int) "hyp" None (Host.Category.domain Hypervisor)

(* ---------- Profile ---------- *)

let test_profile_accumulates () =
  let p = Host.Profile.create () in
  Host.Profile.add p Host.Category.Hypervisor (us 10);
  Host.Profile.add p Host.Category.Hypervisor (us 5);
  Host.Profile.add p (Host.Category.Kernel 1) (us 20);
  check_int "hyp" (us 15) (Host.Profile.total p Host.Category.Hypervisor);
  check_int "kernel" (us 20) (Host.Profile.total p (Host.Category.Kernel 1));
  check_int "busy" (us 35) (Host.Profile.busy p)

let test_profile_report_split () =
  let p = Host.Profile.create () in
  Host.Profile.add p (Host.Category.Kernel 0) (us 30);
  Host.Profile.add p (Host.Category.User 0) (us 10);
  Host.Profile.add p (Host.Category.Kernel 1) (us 20);
  Host.Profile.add p Host.Category.Hypervisor (us 15);
  let r = Host.Profile.report p ~window:(us 100) ~driver_domain:(Some 0) in
  check (Alcotest.float 0.01) "hyp" 15. r.Host.Profile.hyp;
  check (Alcotest.float 0.01) "driver kernel" 30. r.Host.Profile.driver_kernel;
  check (Alcotest.float 0.01) "driver user" 10. r.Host.Profile.driver_user;
  check (Alcotest.float 0.01) "guest kernel" 20. r.Host.Profile.guest_kernel;
  check (Alcotest.float 0.01) "idle" 25. r.Host.Profile.idle

let test_profile_report_no_driver () =
  let p = Host.Profile.create () in
  Host.Profile.add p (Host.Category.Kernel 0) (us 40);
  let r = Host.Profile.report p ~window:(us 100) ~driver_domain:None in
  check (Alcotest.float 0.01) "all guest" 40. r.Host.Profile.guest_kernel;
  check (Alcotest.float 0.01) "no driver" 0. r.Host.Profile.driver_kernel

let test_profile_reset () =
  let p = Host.Profile.create () in
  Host.Profile.add p Host.Category.Hypervisor (us 10);
  Host.Profile.reset p;
  check_int "cleared" 0 (Host.Profile.busy p)

let test_profile_charge_clamps_to_reset () =
  (* Regression: a slice spanning the measurement reset must only charge
     its post-reset portion; the old code charged the whole slice and the
     report summed past 100%. *)
  let p = Host.Profile.create () in
  Host.Profile.reset ~now:(us 100) p;
  (* Slice ran 60..140us: only 40us falls inside the window. *)
  Host.Profile.charge p (Host.Category.Kernel 0) ~start:(us 60) ~stop:(us 140);
  check_int "clamped to window" (us 40)
    (Host.Profile.total p (Host.Category.Kernel 0));
  (* Entirely pre-reset: nothing charged. *)
  Host.Profile.charge p Host.Category.Hypervisor ~start:(us 10) ~stop:(us 90);
  check_int "pre-reset dropped" 0
    (Host.Profile.total p Host.Category.Hypervisor);
  (* Entirely post-reset: charged in full. *)
  Host.Profile.charge p Host.Category.Hypervisor ~start:(us 200) ~stop:(us 230);
  check_int "post-reset full" (us 30)
    (Host.Profile.total p Host.Category.Hypervisor)

let test_profile_rejects_bad_window () =
  let p = Host.Profile.create () in
  Alcotest.check_raises "zero window"
    (Invalid_argument "Profile.report: non-positive window") (fun () ->
      ignore (Host.Profile.report p ~window:0 ~driver_domain:None))

let prop_profile_conservation =
  QCheck.Test.make ~name:"profile fractions sum to ~100%" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (pair (int_range 0 3) (int_range 1 1000)))
    (fun entries ->
      let p = Host.Profile.create () in
      let total = ref 0 in
      List.iter
        (fun (cat, cost) ->
          let c =
            match cat with
            | 0 -> Host.Category.Hypervisor
            | 1 -> Host.Category.Kernel 1
            | 2 -> Host.Category.User 1
            | _ -> Host.Category.Kernel 0
          in
          total := !total + cost;
          Host.Profile.add p c cost)
        entries;
      let window = max 1 !total in
      let r = Host.Profile.report p ~window ~driver_domain:(Some 0) in
      let sum =
        r.Host.Profile.hyp +. r.Host.Profile.driver_kernel
        +. r.Host.Profile.driver_user +. r.Host.Profile.guest_kernel
        +. r.Host.Profile.guest_user +. r.Host.Profile.idle
      in
      Float.abs (sum -. 100.) < 0.01)

(* ---------- Cpu ---------- *)

let test_cpu_executes_in_order () =
  let engine, _, cpu = make_cpu ~ctx_switch_cost:0 () in
  let e = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let log = ref [] in
  Host.Cpu.post cpu e ~category:(Host.Category.Kernel 0) ~cost:(us 5) (fun () ->
      log := 1 :: !log);
  Host.Cpu.post cpu e ~category:(Host.Category.Kernel 0) ~cost:(us 5) (fun () ->
      log := 2 :: !log);
  run_for engine (Sim.Time.ms 1);
  check (Alcotest.list Alcotest.int) "order" [ 1; 2 ] (List.rev !log)

let test_cpu_accounts_categories () =
  let engine, profile, cpu = make_cpu ~ctx_switch_cost:0 () in
  let e = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  Host.Cpu.post cpu e ~category:(Host.Category.Kernel 0) ~cost:(us 7) ignore;
  Host.Cpu.post cpu e ~category:(Host.Category.User 0) ~cost:(us 3) ignore;
  Host.Cpu.post_irq cpu ~cost:(us 2) ignore;
  run_for engine (Sim.Time.ms 1);
  check_int "kernel" (us 7) (Host.Profile.total profile (Host.Category.Kernel 0));
  check_int "user" (us 3) (Host.Profile.total profile (Host.Category.User 0));
  check_int "hyp" (us 2) (Host.Profile.total profile Host.Category.Hypervisor)

let test_cpu_irq_preempts () =
  let engine, _, cpu = make_cpu ~ctx_switch_cost:0 () in
  let e = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let log = ref [] in
  (* Queue two entity items; at the end of the first, post an IRQ: it must
     run before the second entity item. *)
  Host.Cpu.post cpu e ~category:(Host.Category.Kernel 0) ~cost:(us 5) (fun () ->
      Host.Cpu.post_irq cpu ~cost:(us 1) (fun () -> log := `Irq :: !log));
  Host.Cpu.post cpu e ~category:(Host.Category.Kernel 0) ~cost:(us 5) (fun () ->
      log := `Second :: !log);
  run_for engine (Sim.Time.ms 1);
  check_bool "irq before second item" true (!log = [ `Second; `Irq ])

let test_cpu_serializes () =
  (* One CPU: total completion time is the sum of costs. *)
  let engine, _, cpu = make_cpu ~ctx_switch_cost:0 () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let b = Host.Cpu.add_entity cpu ~name:"b" ~weight:256 ~domain:1 in
  let done_at = ref 0 in
  for _ = 1 to 5 do
    Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 10)
      (fun () -> done_at := Sim.Engine.now engine);
    Host.Cpu.post cpu b ~category:(Host.Category.Kernel 1) ~cost:(us 10)
      (fun () -> done_at := Sim.Engine.now engine)
  done;
  run_for engine (Sim.Time.ms 10);
  check_int "100us total" (us 100) !done_at

let test_cpu_fair_share () =
  (* Two always-busy entities with equal weights get ~equal CPU. *)
  let engine, _, cpu = make_cpu ~slice:(us 100) () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let b = Host.Cpu.add_entity cpu ~name:"b" ~weight:256 ~domain:1 in
  let rec feed e cat () =
    Host.Cpu.post cpu e ~category:cat ~cost:(us 10) (feed e cat)
  in
  let m = metrics_of cpu in
  feed a (Host.Category.Kernel 0) ();
  feed b (Host.Category.Kernel 1) ();
  run_for engine (Sim.Time.ms 200);
  let ra = float_of_int (runtime_ns m a) in
  let rb = float_of_int (runtime_ns m b) in
  let ratio = ra /. rb in
  check_bool
    (Printf.sprintf "fair within 20%% (ratio %.2f)" ratio)
    true
    (ratio > 0.8 && ratio < 1.25)

let test_cpu_weighted_share () =
  (* 3:1 weights give roughly 3:1 runtime. *)
  let engine, _, cpu = make_cpu ~slice:(us 100) () in
  let a = Host.Cpu.add_entity cpu ~name:"heavy" ~weight:768 ~domain:0 in
  let b = Host.Cpu.add_entity cpu ~name:"light" ~weight:256 ~domain:1 in
  let rec feed e cat () =
    Host.Cpu.post cpu e ~category:cat ~cost:(us 10) (feed e cat)
  in
  let m = metrics_of cpu in
  feed a (Host.Category.Kernel 0) ();
  feed b (Host.Category.Kernel 1) ();
  run_for engine (Sim.Time.ms 400);
  let ra = float_of_int (runtime_ns m a) in
  let rb = float_of_int (runtime_ns m b) in
  let ratio = ra /. rb in
  check_bool
    (Printf.sprintf "3:1 within 40%% (ratio %.2f)" ratio)
    true
    (ratio > 1.8 && ratio < 4.2)

let test_cpu_credit_cap_is_weighted_share () =
  (* Regression: an idle entity's credit bank must cap at its own weighted
     share of one period, not at the full period.  With 3:1 weights the
     light entity is entitled to 1/4 of each 30ms period (7500us); the old
     cap let it bank the whole 30000us and burst far past its share. *)
  let engine, _, cpu = make_cpu () in
  let _heavy = Host.Cpu.add_entity cpu ~name:"heavy" ~weight:768 ~domain:0 in
  let light = Host.Cpu.add_entity cpu ~name:"light" ~weight:256 ~domain:1 in
  let m = metrics_of cpu in
  (* Both idle: credits only accumulate, across many replenish periods. *)
  run_for engine (Sim.Time.ms 200);
  let share_us = 30_000. *. 256. /. 1024. in
  let banked = credits_us m light in
  check_bool
    (Printf.sprintf "banked %.0fus <= weighted share %.0fus" banked share_us)
    true
    (banked <= share_us +. 1e-6)

let test_cpu_boost_on_wake () =
  (* A woken (blocked) entity runs before a busy one finishes its slice. *)
  let engine, _, cpu = make_cpu ~ctx_switch_cost:0 ~slice:(Sim.Time.ms 10) () in
  let busy = Host.Cpu.add_entity cpu ~name:"busy" ~weight:256 ~domain:0 in
  let sleeper = Host.Cpu.add_entity cpu ~name:"sleeper" ~weight:256 ~domain:1 in
  let woke_at = ref 0 in
  let rec feed () =
    Host.Cpu.post cpu busy ~category:(Host.Category.Kernel 0) ~cost:(us 10) feed
  in
  feed ();
  Sim.Engine.schedule engine ~delay:(us 55) (fun () ->
      Host.Cpu.post cpu sleeper ~category:(Host.Category.Kernel 1)
        ~cost:(us 1) (fun () -> woke_at := Sim.Engine.now engine));
  run_for engine (Sim.Time.ms 5);
  (* Without boost the sleeper would wait for the 10ms slice to expire. *)
  check_bool "woken promptly" true (!woke_at < us 100)

let test_cpu_ctx_switch_charged () =
  let engine, profile, cpu = make_cpu ~ctx_switch_cost:(us 2) () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let m = metrics_of cpu in
  Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 5) ignore;
  run_for engine (Sim.Time.ms 1);
  (* First dispatch switches from nothing to [a]: one switch. *)
  check_int "switches" 1 (Sim.Metrics.sum m "cpu.ctx_switches");
  check_int "switch time charged to hypervisor" (us 2)
    (Host.Profile.total profile Host.Category.Hypervisor)

let test_cpu_no_switch_same_entity () =
  let engine, _, cpu = make_cpu ~ctx_switch_cost:(us 2) () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let m = metrics_of cpu in
  for _ = 1 to 5 do
    Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 5) ignore
  done;
  run_for engine (Sim.Time.ms 1);
  check_int "one switch for five items" 1 (Sim.Metrics.sum m "cpu.ctx_switches")

let test_cpu_is_idle () =
  let engine, _, cpu = make_cpu () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  check_bool "initially idle" true (Host.Cpu.is_idle cpu);
  Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 5) ignore;
  check_bool "busy" false (Host.Cpu.is_idle cpu);
  run_for engine (Sim.Time.ms 1);
  check_bool "idle again" true (Host.Cpu.is_idle cpu)

let test_cpu_zero_cost_work () =
  let engine, _, cpu = make_cpu () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let ran = ref false in
  Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:0 (fun () ->
      ran := true);
  run_for engine (Sim.Time.ms 1);
  check_bool "ran" true !ran

let test_cpu_rejects_negative () =
  let _, _, cpu = make_cpu () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  Alcotest.check_raises "negative cost" (Invalid_argument "Cpu.post: negative cost")
    (fun () ->
      Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(-1) ignore);
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Cpu.add_entity: non-positive weight") (fun () ->
      ignore (Host.Cpu.add_entity cpu ~name:"x" ~weight:0 ~domain:9))

let test_cpu_busy_matches_profile () =
  let engine, profile, cpu = make_cpu ~ctx_switch_cost:0 () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let m = metrics_of cpu in
  for _ = 1 to 10 do
    Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 3) ignore
  done;
  run_for engine (Sim.Time.ms 1);
  check_int "total busy = profile busy" (Host.Profile.busy profile |> Sim.Time.to_ns)
    (Sim.Metrics.sum m "cpu.busy_ns")

let test_cpu_idle_one_replenish_event () =
  (* The credit-replenish timer reschedules itself once per firing, so
     however long a scheduler runs, once idle it leaves exactly one
     pending event: the timer never duplicates. *)
  let engine, _, cpu = make_cpu ~cpus:2 () in
  let m = Sim.Metrics.create () in
  Sim.Engine.register_metrics engine m;
  let pending () = Sim.Metrics.sum m "engine.pending" in
  check_int "one timer at creation" 1 (pending ());
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let b = Host.Cpu.add_entity cpu ~name:"b" ~weight:512 ~domain:1 in
  List.iter
    (fun until ->
      for _ = 1 to 20 do
        Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 40)
          ignore;
        Host.Cpu.post cpu b ~category:(Host.Category.Kernel 1) ~cost:(us 70)
          ignore;
        Host.Cpu.post_irq cpu ~cost:(us 3) ignore
      done;
      run_for engine until;
      check_bool "idle" true (Host.Cpu.is_idle cpu);
      check_int "one pending event" 1 (pending ()))
    [ Sim.Time.ms 5; Sim.Time.ms 31; Sim.Time.ms 95; Sim.Time.ms 400 ]

let test_cpu_credits_integer_exact () =
  (* Regression: credits were a [float] microsecond count; replenishment
     accumulated rounding drift. Integer-nanosecond credits land an idle
     entity's bank {e exactly} on its weighted share of one period. *)
  let engine, _, cpu = make_cpu () in
  let _heavy = Host.Cpu.add_entity cpu ~name:"heavy" ~weight:768 ~domain:0 in
  let light = Host.Cpu.add_entity cpu ~name:"light" ~weight:256 ~domain:1 in
  let m = metrics_of cpu in
  run_for engine (Sim.Time.ms 200);
  let share_us = 30_000. *. 256. /. 1024. in
  check (Alcotest.float 0.) "banked exactly the weighted share" share_us
    (credits_us m light)

(* ---------- SMP runqueues ---------- *)

let test_smp_runs_in_parallel () =
  (* Two entities on two CPUs complete concurrently, not serialized. *)
  let engine, _, cpu = make_cpu ~cpus:2 ~ctx_switch_cost:0 () in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let b = Host.Cpu.add_entity cpu ~name:"b" ~weight:256 ~domain:1 in
  check_int "two runqueues" 2 (Host.Cpu.num_cpus cpu);
  check_int "a on cpu0" 0 (Host.Cpu.cpu_of a);
  check_int "b on cpu1" 1 (Host.Cpu.cpu_of b);
  let done_a = ref 0 and done_b = ref 0 in
  Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 100)
    (fun () -> done_a := Sim.Engine.now engine);
  Host.Cpu.post cpu b ~category:(Host.Category.Kernel 1) ~cost:(us 100)
    (fun () -> done_b := Sim.Engine.now engine);
  run_for engine (Sim.Time.ms 1);
  check_int "a done at 100us" (us 100) !done_a;
  check_int "b done at 100us (concurrent)" (us 100) !done_b

let test_smp_wake_migrates_to_idle_cpu () =
  (* Round-robin placement puts c on cpu0 with a; when c wakes while a is
     busy and cpu1 sits idle, c migrates there (and pays the one-shot
     IPI/cold-cache penalty on its first dispatch). *)
  let engine, _, cpu =
    make_cpu ~cpus:2 ~ctx_switch_cost:0 ~migration_cost:(us 9) ()
  in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let _b = Host.Cpu.add_entity cpu ~name:"b" ~weight:256 ~domain:1 in
  let c = Host.Cpu.add_entity cpu ~name:"c" ~weight:256 ~domain:2 in
  let m = metrics_of cpu in
  check_int "c starts on cpu0" 0 (Host.Cpu.cpu_of c);
  let rec feed () =
    Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 10) feed
  in
  feed ();
  let c_done = ref 0 in
  Sim.Engine.schedule engine ~delay:(us 5) (fun () ->
      Host.Cpu.post cpu c ~category:(Host.Category.Kernel 2) ~cost:(us 10)
        (fun () -> c_done := Sim.Engine.now engine));
  run_for engine (Sim.Time.us 200);
  check_int "one migration" 1 (Sim.Metrics.sum m "cpu.migrations");
  check_int "c now on cpu1" 1 (Host.Cpu.cpu_of c);
  (* Woken at 5us, 9us migration penalty, 10us of work. *)
  check_int "c paid the migration penalty" (us 24) !c_done

let test_smp_no_migration_when_home_free () =
  (* An entity whose home runqueue is idle stays put: no spurious
     migrations, no penalty. *)
  let engine, _, cpu =
    make_cpu ~cpus:2 ~ctx_switch_cost:0 ~migration_cost:(us 9) ()
  in
  let a = Host.Cpu.add_entity cpu ~name:"a" ~weight:256 ~domain:0 in
  let b = Host.Cpu.add_entity cpu ~name:"b" ~weight:256 ~domain:1 in
  let m = metrics_of cpu in
  for _ = 1 to 3 do
    Host.Cpu.post cpu a ~category:(Host.Category.Kernel 0) ~cost:(us 10) ignore;
    Host.Cpu.post cpu b ~category:(Host.Category.Kernel 1) ~cost:(us 10) ignore
  done;
  run_for engine (Sim.Time.ms 1);
  check_int "no migrations" 0 (Sim.Metrics.sum m "cpu.migrations");
  check_int "a stayed home" 0 (Host.Cpu.cpu_of a);
  check_int "b stayed home" 1 (Host.Cpu.cpu_of b)

let test_smp_busy_matches_profile () =
  (* Per-runqueue busy accounting still sums to the shared profile. *)
  let engine, profile, cpu = make_cpu ~cpus:4 ~ctx_switch_cost:0 () in
  let es =
    List.init 4 (fun i ->
        Host.Cpu.add_entity cpu
          ~name:(Printf.sprintf "e%d" i)
          ~weight:256 ~domain:i)
  in
  List.iteri
    (fun i e ->
      for _ = 1 to 5 do
        Host.Cpu.post cpu e ~category:(Host.Category.Kernel i) ~cost:(us 3)
          ignore
      done)
    es;
  let m = metrics_of cpu in
  run_for engine (Sim.Time.ms 1);
  check_int "total busy = profile busy"
    (Host.Profile.busy profile |> Sim.Time.to_ns)
    (Sim.Metrics.sum m "cpu.busy_ns")

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "host.category",
      [
        Alcotest.test_case "equality" `Quick test_category_equal;
        Alcotest.test_case "domain" `Quick test_category_domain;
      ] );
    ( "host.profile",
      [
        Alcotest.test_case "accumulates" `Quick test_profile_accumulates;
        Alcotest.test_case "report split" `Quick test_profile_report_split;
        Alcotest.test_case "report no driver" `Quick test_profile_report_no_driver;
        Alcotest.test_case "reset" `Quick test_profile_reset;
        Alcotest.test_case "charge clamps to reset" `Quick
          test_profile_charge_clamps_to_reset;
        Alcotest.test_case "bad window" `Quick test_profile_rejects_bad_window;
        qcheck prop_profile_conservation;
      ] );
    ( "host.cpu",
      [
        Alcotest.test_case "executes in order" `Quick test_cpu_executes_in_order;
        Alcotest.test_case "accounts categories" `Quick test_cpu_accounts_categories;
        Alcotest.test_case "irq preempts" `Quick test_cpu_irq_preempts;
        Alcotest.test_case "serializes" `Quick test_cpu_serializes;
        Alcotest.test_case "fair share" `Quick test_cpu_fair_share;
        Alcotest.test_case "weighted share" `Quick test_cpu_weighted_share;
        Alcotest.test_case "credit cap is weighted share" `Quick
          test_cpu_credit_cap_is_weighted_share;
        Alcotest.test_case "boost on wake" `Quick test_cpu_boost_on_wake;
        Alcotest.test_case "ctx switch charged" `Quick test_cpu_ctx_switch_charged;
        Alcotest.test_case "no switch same entity" `Quick test_cpu_no_switch_same_entity;
        Alcotest.test_case "is_idle" `Quick test_cpu_is_idle;
        Alcotest.test_case "zero cost work" `Quick test_cpu_zero_cost_work;
        Alcotest.test_case "rejects negative" `Quick test_cpu_rejects_negative;
        Alcotest.test_case "busy matches profile" `Quick test_cpu_busy_matches_profile;
        Alcotest.test_case "idle cpu holds one replenish event" `Quick
          test_cpu_idle_one_replenish_event;
        Alcotest.test_case "credits are exact integers" `Quick
          test_cpu_credits_integer_exact;
      ] );
    ( "host.cpu.smp",
      [
        Alcotest.test_case "runs in parallel" `Quick test_smp_runs_in_parallel;
        Alcotest.test_case "wake migrates to idle cpu" `Quick
          test_smp_wake_migrates_to_idle_cpu;
        Alcotest.test_case "no migration when home free" `Quick
          test_smp_no_migration_when_home_free;
        Alcotest.test_case "busy matches profile" `Quick
          test_smp_busy_matches_profile;
      ] );
  ]
