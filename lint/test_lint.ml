(* Fixture suite for cdna_lint: each known-bad snippet, compiled to .cmt
   under fixtures/ (its layer set by [@@@cdna.layer], since the
   protection rules key off it), must produce exactly the expected
   multiset of rule hits, annotated variants none, and the installed
   lib/ tree must be violation-free and hold the committed suppression
   baseline. *)

let lint_fixtures bases =
  Cdna_lint.analyze
    (Program.load
       (List.map (fun b -> Filename.concat "fixtures" (b ^ ".cmt")) bases))

let rules_of r = List.map (fun v -> v.Chain.rule) r.Cdna_lint.violations

let check_rules name fixture expected =
  Alcotest.(check (list string))
    name (List.sort String.compare expected)
    (List.sort String.compare (rules_of (lint_fixtures [ fixture ])))

let suppression r name =
  Option.value ~default:0 (List.assoc_opt name r.Cdna_lint.suppressions)

(* ---------- determinism family ---------- *)

let test_iter_unsorted () =
  check_rules "iter flagged" "det_iter_unsorted" [ "D1-unordered-iter" ]

let test_fold_unsorted () =
  (* Only the unsorted fold is flagged; both sort-wrapped forms pass. *)
  check_rules "fold flagged once" "det_fold_unsorted" [ "D1-unordered-iter" ]

let test_alias_hashtbl () =
  (* Aliasing must not launder hash-order iteration: top-level alias,
     let-module alias, and explicit Stdlib qualification all count. *)
  check_rules "aliased Hashtbl flagged" "det_alias_hashtbl"
    [ "D1-unordered-iter"; "D1-unordered-iter"; "D1-unordered-iter" ]

let test_poly_compare () =
  check_rules "poly compare" "det_poly_compare"
    [ "D2-poly-compare"; "D2-poly-compare"; "D2-poly-compare" ]

let test_nondet () =
  check_rules "nondet primitives" "det_nondet"
    [ "D3-nondet-primitive"; "D3-nondet-primitive"; "D3-nondet-primitive" ]

(* ---------- hot-path cost family ---------- *)

let test_hot_poly_order () =
  (* min and max are allowlisted as non-allocating, so H1 alone flags
     them; compare also breaks D2 everywhere and A3 in a hot body. *)
  check_rules "poly compare/min/max in hot body" "hot_poly_order"
    [
      "H1-hot-poly-compare"; "H1-hot-poly-compare"; "H1-hot-poly-compare";
      "D2-poly-compare"; "A3-alloc-call";
    ]

let test_hot_stdlib_queue () =
  check_rules "Stdlib.Queue barred" "hot_stdlib_queue"
    [ "H2-stdlib-queue"; "H2-stdlib-queue"; "H2-stdlib-queue";
      "H2-stdlib-queue" ]

(* ---------- zero-alloc family ---------- *)

let test_alloc_construct () =
  check_rules "construction in hot body" "alloc_construct"
    [ "A1-alloc-construct"; "A1-alloc-construct"; "A1-alloc-construct" ]

let test_alloc_closure () =
  check_rules "closure in hot body" "alloc_closure" [ "A2-alloc-closure" ]

let test_alloc_call () =
  check_rules "non-hot call in hot body" "alloc_call" [ "A3-alloc-call" ]

let test_alloc_partial () =
  check_rules "partial application in hot body" "alloc_partial"
    [ "A4-partial-app" ]

let test_alloc_partial_default () =
  match (lint_fixtures [ "alloc_partial_default" ]).violations with
  | [ v ] ->
      Alcotest.(check string) "rule" "A4-partial-app" v.Chain.rule;
      Alcotest.(check int) "the partial application" 5 v.Chain.line
  | vs -> Alcotest.failf "expected one A4, got %d" (List.length vs)

(* Printf.sprintf is no error exit: only its use inside one is cold. *)
let test_alloc_sprintf () =
  match (lint_fixtures [ "alloc_sprintf" ]).violations with
  | [ v ] ->
      Alcotest.(check string) "rule" "A3-alloc-call" v.Chain.rule;
      Alcotest.(check int) "the steady-state sprintf" 4 v.Chain.line
  | vs -> Alcotest.failf "expected one A3, got %d" (List.length vs)

(* ---------- protection family ---------- *)

let test_prot_ownership () =
  check_rules "ownership mutation outside hypervisor" "prot_ownership_nic"
    [
      "P1-ownership-boundary"; "P1-ownership-boundary"; "P1-ownership-boundary";
    ]

let test_prot_ownership_allowed_in_xen () =
  check_rules "no P1 in the xen layer" "prot_ownership_xen" []

let test_prot_guest_mem () =
  check_rules "direct guest memory access" "prot_guest_mem_guestos"
    [ "P2-guest-memory-boundary"; "P2-guest-memory-boundary" ];
  (* The same code outside the restricted layers is fine. *)
  check_rules "no P2 outside nic/guestos" "prot_guest_mem_experiments" []

let test_prot_privileged () =
  let r = lint_fixtures [ "prot_privileged" ] in
  Alcotest.(check (list string)) "privileged module clean" [] (rules_of r);
  Alcotest.(check int) "privilege counted as suppression" 1
    (suppression r "cdna.privileged")

(* ---------- suppression machinery ---------- *)

let test_suppressed () =
  let r = lint_fixtures [ "suppressed" ] in
  Alcotest.(check (list string)) "all suppressed" [] (rules_of r);
  let total = List.fold_left (fun a (_, n) -> a + n) 0 r.suppressions in
  Alcotest.(check bool) "suppressions tracked" true (total >= 5)

let test_missing_reason () =
  check_rules "reasonless suppression flagged" "missing_reason"
    [ "S1-suppression-reason" ]

let test_hot_clean () = check_rules "clean hot code passes" "hot_clean" []

let test_hot_submodule () =
  check_rules "hot binding in submodule resolves" "hot_submodule" []

(* ---------- the real tree ---------- *)

let lib =
  lazy (Cdna_lint.analyze (Program.load [ "../../install/default/lib/cdna" ]))

let test_lib_clean () =
  let r = Lazy.force lib in
  Alcotest.(check bool) "lib/ has modules" true (r.cmt_files > 50);
  Alcotest.(check (list string))
    "lib/ is violation-free" []
    (List.map Chain.violation_to_string r.violations)

(* The drift gate holds each suppression count on its own: against the
   committed baseline lib/ passes, and a baseline that trades one
   protection waiver for one more alloc waiver (same total) fails. *)
let test_gate_per_suppression () =
  let baseline =
    match
      Sim.Json.parse
        (In_channel.with_open_bin "../LINT_stats.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let current = Cdna_lint.report_to_json (Lazy.force lib) in
  Alcotest.(check (list string)) "committed baseline holds" []
    (List.map (fun (k, _, _) -> k) (Chain.gate_drift ~baseline current));
  let shifted =
    match baseline with
    | Sim.Json.Obj fields ->
        Sim.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "suppressions" then
                 ( k,
                   Sim.Json.Obj
                     [
                       ("cdna.alloc_ok", Sim.Json.Int 18);
                       ("cdna.privileged", Sim.Json.Int 1);
                       ("cdna.protection_ok", Sim.Json.Int 7);
                       ("cdna.unordered_ok", Sim.Json.Int 1);
                     ] )
               else (k, v))
             fields)
    | j -> j
  in
  Alcotest.(check (list (triple string int int)))
    "a grown protection waiver fails"
    [ ("suppressions.cdna.protection_ok", 7, 8) ]
    (Chain.gate_drift ~baseline:shifted current)

(* [main.exe --only D1] semantics: the bare prefix and the full rule name
   both select, a non-prefix selects nothing. *)
let test_only_filter () =
  let r = lint_fixtures [ "det_iter_unsorted"; "det_poly_compare" ] in
  let count only =
    List.length
      (List.filter
         (fun v -> Chain.rule_matches ~only v.Chain.rule)
         r.violations)
  in
  Alcotest.(check int) "D1 prefix filter" 1 (count (Some "D1"));
  Alcotest.(check int) "full rule name filter" 3
    (count (Some "D2-poly-compare"));
  Alcotest.(check int) "'D' is not a rule prefix" 0 (count (Some "D"));
  Alcotest.(check int) "no filter keeps everything" 4 (count None)

let () =
  Alcotest.run "cdna_lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "iter unsorted" `Quick test_iter_unsorted;
          Alcotest.test_case "fold unsorted vs sorted" `Quick
            test_fold_unsorted;
          Alcotest.test_case "aliased Hashtbl" `Quick test_alias_hashtbl;
          Alcotest.test_case "poly compare" `Quick test_poly_compare;
          Alcotest.test_case "nondet primitives" `Quick test_nondet;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "construct" `Quick test_alloc_construct;
          Alcotest.test_case "closure" `Quick test_alloc_closure;
          Alcotest.test_case "call" `Quick test_alloc_call;
          Alcotest.test_case "partial app" `Quick test_alloc_partial;
          Alcotest.test_case "partial app past a default" `Quick
            test_alloc_partial_default;
          Alcotest.test_case "sprintf outside raise" `Quick test_alloc_sprintf;
        ] );
      ( "hot-path cost",
        [
          Alcotest.test_case "poly compare/min/max" `Quick test_hot_poly_order;
          Alcotest.test_case "Stdlib.Queue" `Quick test_hot_stdlib_queue;
        ] );
      ( "protection",
        [
          Alcotest.test_case "ownership" `Quick test_prot_ownership;
          Alcotest.test_case "ownership allowed in xen" `Quick
            test_prot_ownership_allowed_in_xen;
          Alcotest.test_case "guest memory" `Quick test_prot_guest_mem;
          Alcotest.test_case "privileged module" `Quick test_prot_privileged;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "justified annotations" `Quick test_suppressed;
          Alcotest.test_case "missing reason" `Quick test_missing_reason;
          Alcotest.test_case "clean hot code" `Quick test_hot_clean;
          Alcotest.test_case "hot in submodule" `Quick test_hot_submodule;
        ] );
      ( "tree",
        [
          Alcotest.test_case "lib violation-free" `Quick test_lib_clean;
          Alcotest.test_case "--only rule filtering" `Quick test_only_filter;
          Alcotest.test_case "gate per suppression" `Quick
            test_gate_per_suppression;
        ] );
    ]
