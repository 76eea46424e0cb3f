(* Fixture suite for cdna_proto: every seeded protocol violation must
   be detected with a complete acquire->witness->exit chain, and the
   deliberately clean variants (Fun.protect, releasing handlers, loops,
   escapes, balanced parameter locking) must stay silent. Runs against
   the .cmt files compiled from proto_fixtures/ (cwd is
   _build/default/lint under dune). *)

let fixture_root = "proto_fixtures"
let report = lazy (Cdna_proto.analyze (Program.load [ fixture_root ]))

let viols_in base =
  let r = Lazy.force report in
  List.filter
    (fun v -> Filename.basename v.Chain.file = base)
    r.Cdna_proto.violations

let has_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let chain_whats (v : Chain.violation) =
  String.concat "|"
    (List.map (fun h -> h.Chain.hop_what) v.Chain.chain)

let check_chain base (v : Chain.violation) =
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (base ^ " hop has file:line")
        true
        (h.Chain.hop_file <> "" && h.Chain.hop_line > 0))
    v.Chain.chain

let check_detects ~base ~rule ~n ?(min_hops = 2) () =
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

(* The simplest PR1: map, read, return — no revoke anywhere. *)
let test_leak_simple () =
  check_detects ~base:"leak_simple.ml" ~rule:"PR1-leak-on-path" ~n:1 ();
  match viols_in "leak_simple.ml" with
  | [ v ] ->
      let w = chain_whats v in
      Alcotest.(check bool)
        "acquire hop present" true
        (has_sub w "acquired by Mmio.map");
      Alcotest.(check bool)
        "exit hop names the leaking function" true
        (has_sub w "function exit Leak_simple.leak_mapping")
  | _ -> Alcotest.fail "expected exactly one leak_simple violation"

(* Ignoring [try_reserve]'s result means no path can release: the chain
   must walk creator -> acquire -> exit. *)
let test_leak_ignored () =
  check_detects ~base:"leak_ignored.ml" ~rule:"PR1-leak-on-path" ~n:1
    ~min_hops:3 ();
  match viols_in "leak_ignored.ml" with
  | [ v ] ->
      let w = chain_whats v in
      Alcotest.(check bool)
        "creator hop present" true
        (has_sub w "created by Pkt_buf.create");
      Alcotest.(check bool)
        "acquire hop present" true
        (has_sub w "acquired by Pkt_buf.try_reserve")
  | _ -> Alcotest.fail "expected exactly one leak_ignored violation"

(* The grant is revoked on the normal return but leaks through the
   [failwith] guard: exactly one violation, whose last hop is the
   raising site. *)
let test_leak_raise () =
  check_detects ~base:"leak_raise.ml" ~rule:"PR1-leak-on-path" ~n:1
    ~min_hops:3 ();
  match viols_in "leak_raise.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "message flags the raising path" true
        (has_sub v.Chain.msg "raising path");
      let last =
        List.nth v.Chain.chain (List.length v.Chain.chain - 1)
      in
      Alcotest.(check bool)
        "last hop is the raise site" true
        (has_sub last.Chain.hop_what "raises without releasing")
  | _ -> Alcotest.fail "expected exactly one leak_raise violation"

(* One match arm revokes, the other returns holding the mapping: PR1
   with the partial-release witness hop. *)
let test_leak_early_return () =
  check_detects ~base:"leak_early_return.ml" ~rule:"PR1-leak-on-path" ~n:1
    ~min_hops:3 ();
  match viols_in "leak_early_return.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "message says some paths" true
        (has_sub v.Chain.msg "released on some paths");
      Alcotest.(check bool)
        "chain shows the partial release" true
        (has_sub (chain_whats v) "released by Mmio.revoke")
  | _ -> Alcotest.fail "expected exactly one leak_early_return violation"

(* Effect-style acquire on a fresh subject, with an inline-combinator
   lambda that must NOT count as an escape. *)
let test_leak_effect =
  check_detects ~base:"leak_effect.ml" ~rule:"PR1-leak-on-path" ~n:1
    ~min_hops:3

(* The three-module leak: acquired in cross_a, forwarded by cross_b,
   dropped in cross_c. Reported once, at the acquire site, with a chain
   spanning all three files. *)
let test_cross_module () =
  (match viols_in "cross_b.ml" @ viols_in "cross_c.ml" with
  | [] -> ()
  | _ ->
      Alcotest.fail "cross-module leak must report at the acquire site only");
  match viols_in "cross_a.ml" with
  | [ v ] ->
      Alcotest.(check string) "rule" "PR1-leak-on-path" v.Chain.rule;
      Alcotest.(check bool)
        "chain has at least 6 hops" true
        (List.length v.Chain.chain >= 6);
      let files =
        List.sort_uniq String.compare
          (List.map
             (fun h -> Filename.basename h.Chain.hop_file)
             v.Chain.chain)
      in
      Alcotest.(check (list string))
        "chain spans all three modules"
        [ "cross_a.ml"; "cross_b.ml"; "cross_c.ml" ]
        files;
      let w = chain_whats v in
      List.iter
        (fun step ->
          Alcotest.(check bool) ("chain walks " ^ step) true (has_sub w step))
        [
          "acquired by Mmio.map";
          "acquired via Cross_a.make_mapping";
          "acquired via Cross_b.wrap";
          "function exit Cross_c.leak_through";
        ]
  | vs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one cross_a violation, got %d"
           (List.length vs))

let test_dbl_release () =
  check_detects ~base:"dbl_release.ml" ~rule:"PR2-double-release" ~n:1
    ~min_hops:4 ();
  match viols_in "dbl_release.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "message cites the first release" true
        (has_sub v.Chain.msg "already released at")
  | _ -> Alcotest.fail "expected exactly one dbl_release violation"

(* The second revoke reaches the same mapping through an alias. *)
let test_dbl_revoke_alias =
  check_detects ~base:"dbl_revoke_alias.ml" ~rule:"PR2-double-release" ~n:1
    ~min_hops:3

let test_use_after_release () =
  check_detects ~base:"use_after_release.ml" ~rule:"PR3-use-after-release" ~n:1
    ~min_hops:3 ();
  match viols_in "use_after_release.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "use hop is the declared use" true
        (has_sub (chain_whats v) "used by Mmio.write32")
  | _ -> Alcotest.fail "expected exactly one use_after_release violation"

let test_use_after_alias =
  check_detects ~base:"use_after_alias.ml" ~rule:"PR3-use-after-release" ~n:1
    ~min_hops:3

(* Revoking on a fresh table that never granted: PR4 with the creation
   site as the first hop. *)
let test_rel_no_acq () =
  check_detects ~base:"rel_no_acq.ml" ~rule:"PR4-release-without-acquire" ~n:1
    ();
  match viols_in "rel_no_acq.ml" with
  | [ v ] ->
      Alcotest.(check bool)
        "first hop is the creation" true
        (has_sub
           (List.hd v.Chain.chain).Chain.hop_what
           "created by Iommu.create")
  | _ -> Alcotest.fail "expected exactly one rel_no_acq violation"

(* The annotation-declared protocol leaks exactly like a seeded one. *)
let test_annot_leak =
  check_detects ~base:"annot_leak.ml" ~rule:"PR1-leak-on-path" ~n:1

let test_clean_fixtures () =
  List.iter
    (fun base ->
      Alcotest.(check int)
        (base ^ " stays clean")
        0
        (List.length (viols_in base)))
    [
      "proto_env.ml"; "clean_protect.ml"; "clean_handler.ml"; "clean_loop.ml";
      "clean_escape.ml"; "clean_capture.ml"; "clean_balanced.ml";
      "clean_annot.ml";
      "suppressed.ml"; "cross_b.ml"; "cross_c.ml";
    ]

(* The suppressed leak is real and must land in the suppressed channel,
   with its mandatory reason attached. *)
let test_suppressed () =
  let r = Lazy.force report in
  let vs =
    List.filter
      (fun v -> Filename.basename v.Chain.file = "suppressed.ml")
      r.Cdna_proto.suppressed
  in
  match vs with
  | [ v ] ->
      Alcotest.(check string) "rule" "PR1-leak-on-path" v.Chain.rule;
      Alcotest.(check bool)
        "reason recorded" true
        (match v.Chain.suppress with
        | Some r -> has_sub r "intentional leak"
        | None -> false)
  | vs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one suppressed violation, got %d"
           (List.length vs))

let test_totals () =
  let r = Lazy.force report in
  Alcotest.(check int) "total unsuppressed" 12
    (List.length r.Cdna_proto.violations);
  Alcotest.(check int) "total suppressed" 1
    (List.length r.Cdna_proto.suppressed);
  Alcotest.(check int) "protocols active (7 seeded + dma-window)" 8
    r.Cdna_proto.protocols;
  Alcotest.(check int) "acquire annotations" 2 r.Cdna_proto.acq_annots;
  Alcotest.(check int) "release annotations" 2 r.Cdna_proto.rel_annots;
  Alcotest.(check bool) "cmt corpus loaded" true (r.Cdna_proto.cmt_files >= 22)

(* [--only PR1] must keep exactly the PR1 reports — both the bare
   prefix and the full rule name match; a non-prefix does not. *)
let test_rule_filter () =
  let r = Lazy.force report in
  let count only =
    List.length
      (List.filter
         (fun v -> Chain.rule_matches ~only v.Chain.rule)
         r.Cdna_proto.violations)
  in
  Alcotest.(check int) "PR1 prefix filter" 7 (count (Some "PR1"));
  Alcotest.(check int) "full rule name filter" 2
    (count (Some "PR2-double-release"));
  Alcotest.(check int) "'PR' is not a rule prefix" 0 (count (Some "PR"));
  Alcotest.(check int) "no filter keeps everything" 12 (count None)

(* Byte-identical reports across runs and under reversed corpus
   listing order: the JSON artifact is diffed by the drift gate. *)
let test_deterministic () =
  let a = Cdna_proto.analyze (Program.load [ fixture_root ]) in
  let b = Cdna_proto.analyze (Program.load [ fixture_root ]) in
  Alcotest.(check string)
    "report JSON identical across runs"
    (Sim.Json.to_string (Cdna_proto.report_to_json a))
    (Sim.Json.to_string (Cdna_proto.report_to_json b));
  let paths = Program.collect_cmts [] fixture_root |> List.sort String.compare in
  let c = Cdna_proto.analyze (Program.load (List.rev paths)) in
  Alcotest.(check string)
    "report JSON stable under listing order"
    (Sim.Json.to_string (Cdna_proto.report_to_json a))
    (Sim.Json.to_string (Cdna_proto.report_to_json c))

let () =
  Alcotest.run "cdna_proto"
    [
      ( "pr1-leaks",
        [
          Alcotest.test_case "map never revoked" `Quick test_leak_simple;
          Alcotest.test_case "ignored try_reserve" `Quick test_leak_ignored;
          Alcotest.test_case "leak on raising guard" `Quick test_leak_raise;
          Alcotest.test_case "leak on early-return arm" `Quick
            test_leak_early_return;
          Alcotest.test_case "fresh mutex never unlocked" `Quick
            test_leak_effect;
          Alcotest.test_case "three-module leak chain" `Quick test_cross_module;
          Alcotest.test_case "annotation-declared protocol" `Quick
            test_annot_leak;
        ] );
      ( "pr2-pr4",
        [
          Alcotest.test_case "double release" `Quick test_dbl_release;
          Alcotest.test_case "double revoke via alias" `Quick
            test_dbl_revoke_alias;
          Alcotest.test_case "use after release" `Quick test_use_after_release;
          Alcotest.test_case "use after release via alias" `Quick
            test_use_after_alias;
          Alcotest.test_case "release without acquire" `Quick test_rel_no_acq;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "clean fixtures stay clean" `Quick
            test_clean_fixtures;
          Alcotest.test_case "suppression channel" `Quick test_suppressed;
          Alcotest.test_case "exact totals" `Quick test_totals;
          Alcotest.test_case "--only rule filtering" `Quick test_rule_filter;
          Alcotest.test_case "deterministic output" `Quick test_deterministic;
        ] );
    ]
