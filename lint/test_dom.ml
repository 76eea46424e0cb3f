(* Fixture suite for cdna_dom: every seeded domain-safety violation must
   be detected with a complete decl->witness->use chain, and the
   deliberately clean fixtures must classify without noise. Runs against
   the .cmt files compiled from dom_fixtures/ (cwd is _build/default/lint
   under dune). *)

let fixture_root = "dom_fixtures"

let report = lazy (Cdna_dom.analyze (Program.load [ fixture_root ]))

let viols_in base =
  let r = Lazy.force report in
  List.filter
    (fun v -> Filename.basename v.Chain.file = base)
    r.Cdna_dom.violations

let check_chain base (v : Chain.violation) =
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (base ^ " hop has file:line")
        true
        (h.Chain.hop_file <> "" && h.Chain.hop_line > 0))
    v.Chain.chain

let check_detects ~base ~rule ~n ?(min_hops = 1) () =
  let vs = viols_in base in
  Alcotest.(check int) (base ^ " violation count") n (List.length vs);
  List.iter
    (fun (v : Chain.violation) ->
      Alcotest.(check string) (base ^ " rule") rule v.Chain.rule;
      Alcotest.(check bool)
        (base ^ " chain length")
        true
        (List.length v.Chain.chain >= min_hops);
      check_chain base v)
    vs

(* The pre-fix Grant_table.count shape: toplevel ref, written by a
   function only reachable through a scheduled closure. The witness hop
   must name the scheduling function. *)
let test_esc_ref () =
  check_detects ~base:"esc_ref.ml" ~rule:"DM1-shared-mutable" ~n:1
    ~min_hops:3 ();
  match viols_in "esc_ref.ml" with
  | [ v ] ->
      let whats = List.map (fun h -> h.Chain.hop_what) v.Chain.chain in
      let has_sub hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "witness hop names the scheduling entry point" true
        (List.exists (fun w -> has_sub w "Esc_ref.start") whats);
      Alcotest.(check bool)
        "use hop is the incr write" true
        (List.exists (fun w -> has_sub w "write (incr)") whats)
  | _ -> Alcotest.fail "expected exactly one esc_ref violation"

(* A sweep point is an LP entry like an engine callback: the witness hop
   names the function that hands the closure to [Sweep.map]. *)
let test_esc_sweep () =
  check_detects ~base:"esc_sweep.ml" ~rule:"DM1-shared-mutable" ~n:1
    ~min_hops:3 ();
  match viols_in "esc_sweep.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "witness hop names the sweeping function" true
        (List.exists
           (fun h ->
             h.Chain.hop_what
             = "Esc_sweep.measure called from a closure passed to Sweep.map \
                in Esc_sweep.sweep")
           v.Chain.chain)
  | _ -> Alcotest.fail "expected exactly one esc_sweep violation"

let test_esc_closure =
  check_detects ~base:"esc_closure.ml" ~rule:"DM2-captured-shared" ~n:1
    ~min_hops:3

let test_esc_bytes =
  check_detects ~base:"esc_bytes.ml" ~rule:"DM1-shared-mutable" ~n:1
    ~min_hops:3

let test_esc_lazy =
  check_detects ~base:"esc_lazy.ml" ~rule:"DM1-shared-mutable" ~n:1 ~min_hops:3

(* One violation per LP-resident function touching the record: the
   writer and the torn-read-prone reader. *)
let test_esc_record =
  check_detects ~base:"esc_record.ml" ~rule:"DM1-shared-mutable" ~n:2
    ~min_hops:3

let test_esc_hashtbl =
  check_detects ~base:"esc_hashtbl.ml" ~rule:"DM1-shared-mutable" ~n:2
    ~min_hops:3

let test_esc_queue =
  check_detects ~base:"esc_queue.ml" ~rule:"DM1-shared-mutable" ~n:2
    ~min_hops:3

(* The write sits two calls below the scheduled closure: the chain must
   walk start -> tick -> commit before the use hop. *)
let test_esc_indirect () =
  check_detects ~base:"esc_indirect.ml" ~rule:"DM1-shared-mutable" ~n:1
    ~min_hops:4 ();
  match viols_in "esc_indirect.ml" with
  | [ v ] ->
      let whats =
        String.concat "|"
          (List.map (fun h -> h.Chain.hop_what) v.Chain.chain)
      in
      let has_sub needle =
        let nl = String.length needle and hl = String.length whats in
        let rec go i =
          i + nl <= hl && (String.sub whats i nl = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun step -> Alcotest.(check bool) ("chain walks " ^ step) true (has_sub step))
        [ "Esc_indirect.start"; "Esc_indirect.tick"; "Esc_indirect.commit" ]
  | _ -> Alcotest.fail "expected exactly one esc_indirect violation"

(* The three-module alias chain: state in dom_a, alias in dom_b, write in
   dom_c — the report lands at the use site and walks all three files. *)
let test_multi_module () =
  (match viols_in "dom_a.ml" @ viols_in "dom_b.ml" with
  | [] -> ()
  | _ -> Alcotest.fail "alias chain must report at the use site only");
  match viols_in "dom_c.ml" with
  | [ v ] ->
      Alcotest.(check string) "rule" "DM1-shared-mutable" v.Chain.rule;
      Alcotest.(check bool)
        "chain has at least 4 hops" true
        (List.length v.Chain.chain >= 4);
      let files =
        List.sort_uniq String.compare
          (List.map
             (fun h -> Filename.basename h.Chain.hop_file)
             v.Chain.chain)
      in
      Alcotest.(check (list string))
        "chain spans all three modules"
        [ "dom_a.ml"; "dom_b.ml"; "dom_c.ml" ]
        files
  | vs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one dom_c violation, got %d"
           (List.length vs))

(* Suppressions without a reason: DS1 fires and the underlying DM1 stays
   unsuppressed — both for per-binding and module-wide attributes. *)
let check_bad_reason base () =
  let vs = viols_in base in
  Alcotest.(check int) (base ^ " violation count") 2 (List.length vs);
  let rules = List.sort_uniq String.compare (List.map (fun v -> v.Chain.rule) vs) in
  Alcotest.(check (list string))
    (base ^ " rules")
    [ "DM1-shared-mutable"; "DS1-suppression-reason" ]
    rules

let test_dl_misuse = check_detects ~base:"dl_misuse.ml" ~rule:"DM3-domain-local-misuse" ~n:1 ~min_hops:0

let test_clean_fixtures () =
  List.iter
    (fun base ->
      Alcotest.(check int) (base ^ " stays clean") 0 (List.length (viols_in base)))
    [
      "dom_env.ml"; "clean_dls.ml"; "clean_mutex.ml"; "clean_frozen.ml";
      "clean_local.ml"; "clean_suppressed.ml"; "clean_domain_local.ml";
      "dom_a.ml"; "dom_b.ml";
    ]

(* The classification lattice over the whole corpus: every class is
   exercised by at least one fixture, with exact counts. *)
let test_classes () =
  let r = Lazy.force report in
  Alcotest.(check int) "state items" 19 r.Cdna_dom.state_items;
  Alcotest.(check (list (pair string int)))
    "class counts"
    [
      ("barrier", 1); ("dls", 1); ("domain-local", 1); ("frozen", 1);
      ("lp-local", 1); ("shared", 13); ("sync", 1);
    ]
    r.Cdna_dom.classes

let test_totals () =
  let r = Lazy.force report in
  Alcotest.(check int) "total unsuppressed" 18
    (List.length r.Cdna_dom.violations);
  Alcotest.(check int) "total suppressed" 1 (List.length r.Cdna_dom.suppressed);
  Alcotest.(check int) "domain-local assertions" 2 r.Cdna_dom.domain_local;
  Alcotest.(check int) "domain-shared annotations" 3 r.Cdna_dom.domain_shared;
  Alcotest.(check (list (pair string int)))
    "closures per LP entry"
    [ ("Engine.schedule", 2); ("Engine.schedule_at", 2); ("Sweep.map", 1) ]
    r.Cdna_dom.lp_entries;
  Alcotest.(check bool) "cmt corpus loaded" true (r.Cdna_dom.cmt_files >= 21)

(* [main.exe --only DM1] semantics over this pass's reports: the bare
   prefix and the full rule name both select, a non-prefix selects
   nothing. *)
let test_only_filter () =
  let r = Lazy.force report in
  let count only =
    List.length
      (List.filter
         (fun v -> Chain.rule_matches ~only v.Chain.rule)
         r.Cdna_dom.violations)
  in
  Alcotest.(check int) "DM1 prefix filter"
    (count (Some "DM1-shared-mutable"))
    (count (Some "DM1"));
  Alcotest.(check bool) "DM1 selects something" true (count (Some "DM1") > 0);
  Alcotest.(check int) "'DM' is not a rule prefix" 0 (count (Some "DM"));
  Alcotest.(check int) "no filter keeps everything" 18 (count None)

(* Byte-identical reports across runs: the JSON artifact is diffed by
   the suppression-drift gate, so ordering must be deterministic. *)
let test_deterministic () =
  let a = Cdna_dom.analyze (Program.load [ fixture_root ]) in
  let b = Cdna_dom.analyze (Program.load [ fixture_root ]) in
  Alcotest.(check string)
    "report JSON identical across runs"
    (Sim.Json.to_string (Cdna_dom.report_to_json a))
    (Sim.Json.to_string (Cdna_dom.report_to_json b));
  Alcotest.(check (list string))
    "violation rendering identical across runs"
    (List.map Chain.violation_to_string a.Cdna_dom.violations)
    (List.map Chain.violation_to_string b.Cdna_dom.violations)

let () =
  Alcotest.run "cdna_dom"
    [
      ( "escape",
        [
          Alcotest.test_case "toplevel ref via scheduled closure" `Quick
            test_esc_ref;
          Alcotest.test_case "toplevel ref via Sweep.map closure" `Quick
            test_esc_sweep;
          Alcotest.test_case "closure-captured Hashtbl" `Quick test_esc_closure;
          Alcotest.test_case "Bytes inside scheduled lambda" `Quick
            test_esc_bytes;
          Alcotest.test_case "racing Lazy.force" `Quick test_esc_lazy;
          Alcotest.test_case "mutable-field record" `Quick test_esc_record;
          Alcotest.test_case "Hashtbl from two LP entries" `Quick
            test_esc_hashtbl;
          Alcotest.test_case "Queue incl. nested lambda" `Quick test_esc_queue;
          Alcotest.test_case "write two calls deep" `Quick test_esc_indirect;
          Alcotest.test_case "multi-module alias chain" `Quick
            test_multi_module;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "binding suppression needs reason" `Quick
            (check_bad_reason "bad_reason.ml");
          Alcotest.test_case "module suppression needs reason" `Quick
            (check_bad_reason "bad_module_reason.ml");
          Alcotest.test_case "domain_local on non-state" `Quick test_dl_misuse;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "clean fixtures stay clean" `Quick
            test_clean_fixtures;
          Alcotest.test_case "lattice class counts" `Quick test_classes;
          Alcotest.test_case "exact totals" `Quick test_totals;
          Alcotest.test_case "--only rule filtering" `Quick test_only_filter;
          Alcotest.test_case "deterministic output" `Quick test_deterministic;
        ] );
    ]
