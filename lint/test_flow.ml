(* Fixture suite for cdna_flow: every seeded violation must be detected
   with a complete source->sink chain, and the deliberately clean
   fixtures must produce nothing. Runs against the .cmt files compiled
   from flow_fixtures/ (cwd is _build/default/lint under dune). *)

let fixture_root = "flow_fixtures"

let report = lazy (Cdna_flow.analyze (Program.load [ fixture_root ]))

let viols_in base =
  let r = Lazy.force report in
  List.filter
    (fun v -> Filename.basename v.Chain.file = base)
    r.Cdna_flow.violations

let check_detects ~base ~rule ~n () =
  let vs = viols_in base in
  Alcotest.(check int) (base ^ " violation count") n (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check string) (base ^ " rule") rule v.Chain.rule;
      Alcotest.(check bool) (base ^ " has chain") true (v.Chain.chain <> []);
      List.iter
        (fun h ->
          Alcotest.(check bool)
            (base ^ " hop has file:line")
            true
            (h.Chain.hop_file <> "" && h.Chain.hop_line > 0))
        v.Chain.chain)
    vs

let test_taint_direct = check_detects ~base:"taint_direct.ml" ~rule:"T1-guest-taint" ~n:1
let test_taint_tuple = check_detects ~base:"taint_tuple.ml" ~rule:"T1-guest-taint" ~n:1
let test_taint_option = check_detects ~base:"taint_option.ml" ~rule:"T1-guest-taint" ~n:1
let test_taint_desc = check_detects ~base:"taint_desc.ml" ~rule:"T2-desc-construct" ~n:1
let test_hot_trans = check_detects ~base:"hot_trans_alloc.ml" ~rule:"A6-transitive-alloc" ~n:1
let test_priv_reach = check_detects ~base:"priv_reach.ml" ~rule:"P3-priv-reachability" ~n:1

(* Field sensitivity: exactly the tainted [payload] sink fires; the
   clean [tag] field flowing into the second sink must not. *)
let test_taint_record () =
  check_detects ~base:"taint_record.ml" ~rule:"T1-guest-taint" ~n:1 ();
  match viols_in "taint_record.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "violation is the write_uint sink, not the clean-tag access" true
        (let has_sub hay needle =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         has_sub v.Chain.msg "Phys_mem.write_uint")
  | _ -> Alcotest.fail "expected exactly one taint_record violation"

(* The alias'd-List + closure allocations one call below a hot entry:
   both the intrinsic closure and the alias-resolved List.map report. *)
let test_hot_alias () =
  let vs = viols_in "hot_alias_alloc.ml" in
  Alcotest.(check int) "hot_alias_alloc violation count" 2 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check string) "rule" "A6-transitive-alloc" v.Chain.rule)
    vs;
  let msgs = String.concat "|" (List.map (fun v -> v.Chain.msg) vs) in
  let has_sub needle =
    let nl = String.length needle and hl = String.length msgs in
    let rec go i = i + nl <= hl && (String.sub msgs i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "List.map resolved through alias" true (has_sub "List.map");
  Alcotest.(check bool) "intrinsic closure allocation seen" true (has_sub "closure")

(* The three-module chain: source in flow_a, relay in flow_b, sink in
   flow_c — the report must walk all three files. *)
let test_multi_module () =
  match viols_in "flow_b.ml" with
  | [ v ] ->
      Alcotest.(check string) "rule" "T1-guest-taint" v.Chain.rule;
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
        [ "flow_a.ml"; "flow_b.ml"; "flow_c.ml" ]
        files
  | vs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one flow_b violation, got %d"
           (List.length vs))

let test_clean_fixtures () =
  List.iter
    (fun base ->
      Alcotest.(check int) (base ^ " stays clean") 0 (List.length (viols_in base)))
    [
      "taint_sanitized.ml"; "clean_hot.ml"; "priv_ok.ml"; "fixture_hyp.ml";
      "flow_env.ml";
      (* Structured constants are emitted statically: no A6. *)
      "hot_const_ret.ml";
    ]

let test_totals () =
  let r = Lazy.force report in
  Alcotest.(check int) "total unsuppressed" 10 (List.length r.Cdna_flow.violations);
  Alcotest.(check int) "total suppressed" 0 (List.length r.Cdna_flow.suppressed);
  Alcotest.(check bool) "cmt corpus loaded" true (r.Cdna_flow.cmt_files >= 16)

(* Byte-identical reports across runs: the JSON artifact is diffed by
   the suppression gate, so ordering must be deterministic. *)
let test_deterministic () =
  let a = Cdna_flow.analyze (Program.load [ fixture_root ]) in
  let b = Cdna_flow.analyze (Program.load [ fixture_root ]) in
  Alcotest.(check string)
    "report JSON identical across runs"
    (Sim.Json.to_string (Cdna_flow.report_to_json a))
    (Sim.Json.to_string (Cdna_flow.report_to_json b));
  Alcotest.(check (list string))
    "violation rendering identical across runs"
    (List.map Chain.violation_to_string a.Cdna_flow.violations)
    (List.map Chain.violation_to_string b.Cdna_flow.violations)

(* [main.exe --only T1] semantics over this pass's reports: the bare
   prefix and the full rule name both select, a non-prefix selects
   nothing. *)
let test_only_filter () =
  let r = Lazy.force report in
  let count only =
    List.length
      (List.filter
         (fun v -> Chain.rule_matches ~only v.Chain.rule)
         r.Cdna_flow.violations)
  in
  Alcotest.(check int) "T1 prefix filter" 5 (count (Some "T1"));
  Alcotest.(check int) "full rule name filter" 3
    (count (Some "A6-transitive-alloc"));
  Alcotest.(check int) "'T' is not a rule prefix" 0 (count (Some "T"));
  Alcotest.(check int) "no filter keeps everything" 10 (count None)

let () =
  Alcotest.run "cdna_flow"
    [
      ( "taint",
        [
          Alcotest.test_case "direct source->sink" `Quick test_taint_direct;
          Alcotest.test_case "laundered through tuple" `Quick test_taint_tuple;
          Alcotest.test_case "laundered through record" `Quick test_taint_record;
          Alcotest.test_case "laundered through option" `Quick test_taint_option;
          Alcotest.test_case "forged Dma_desc" `Quick test_taint_desc;
          Alcotest.test_case "multi-module chain" `Quick test_multi_module;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "alias'd List one call deep" `Quick test_hot_alias;
          Alcotest.test_case "transitive tuple alloc" `Quick test_hot_trans;
        ] );
      ( "priv",
        [ Alcotest.test_case "nic reaches Iommu.grant" `Quick test_priv_reach ] );
      ( "hygiene",
        [
          Alcotest.test_case "clean fixtures stay clean" `Quick test_clean_fixtures;
          Alcotest.test_case "exact totals" `Quick test_totals;
          Alcotest.test_case "--only rule filtering" `Quick test_only_filter;
          Alcotest.test_case "deterministic output" `Quick test_deterministic;
        ] );
    ]
