(* Fixture suite for the reach report: reach_fixtures/ holds a library
   (rlib, with an interface), an entry executable (rmain) and a test
   (test_rfix). rmain reaches one value directly, one only through a
   closure stored in a record, one through a module alias, one through
   a [let module] alias and a module through a functor instance; it supplies one optional argument,
   forwards a second through a supplied wrapper and a third through a
   wrapper it never supplies. *)

let load ~entries =
  Program.load_with
    ~entries:(List.map (Filename.concat "reach_fixtures") entries)
    [ "reach_fixtures/rlib.cmt" ]

let report =
  lazy (Cdna_reach.analyze (load ~entries:[ "rmain.cmt"; "test_rfix.cmt" ]))

let test_exact () =
  Alcotest.(check (list string))
    "report"
    [
      (* reached, through [table]'s closure, but named only in rlib *)
      "rlib.mli:4: [internal] Rlib.via_record";
      "rlib.mli:10: [internal] Rlib.internal_only";
      "rlib.ml:21: [optional] Rlib.create ?never (tests: test_rfix)";
      "rlib.ml:21: [optional] Rlib.create ?quiet";
      "rlib.ml:25: [optional] Rlib.wrap_quiet ?quiet";
      "rlib.mli:11: [unreached] Rlib.unused (tests: test_rfix)";
    ]
    (List.map Cdna_reach.entry_to_string (Lazy.force report).entries)

let entries_for value =
  List.filter
    (fun (e : Cdna_reach.entry) -> e.value = value)
    (Lazy.force report).entries

let kinds value =
  List.map (fun (e : Cdna_reach.entry) -> e.kind) (entries_for value)

(* Each edge kind on its own, so a failure names the edge that broke. *)
let test_record_closure () =
  Alcotest.(check (list string))
    "reached through the closure in [table]" [ "internal" ]
    (kinds "Rlib.via_record")

let test_module_alias () =
  Alcotest.(check (list string))
    "reached as L.via_alias" [] (kinds "Rlib.via_alias")

let test_let_module_alias () =
  Alcotest.(check (list string))
    "reached as D.via_let_module under let module D = Rlib" []
    (kinds "Rlib.via_let_module")

let test_functor_argument () =
  Alcotest.(check (list string))
    "reached through Set.Make (Rlib.Key)" [] (kinds "Key.compare")

let test_local_shadow () =
  Alcotest.(check (list string))
    "a local named [unused] is no edge" [ "unreached" ] (kinds "Rlib.unused")

let test_forwarded_optional () =
  Alcotest.(check (list string))
    "?fwd forwarded by a supplied wrapper" [] (kinds "Rlib.create ?fwd");
  Alcotest.(check (list string))
    "?quiet forwarded by a wrapper never supplied" [ "optional" ]
    (kinds "Rlib.create ?quiet")

let test_test_supply () =
  match entries_for "Rlib.create ?never" with
  | [ e ] ->
      Alcotest.(check (list string))
        "a test's supply is listed, not counted" [ "test_rfix" ] e.tests
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* The drift gate holds each reach count: one more unreached value than
   the committed baseline fails it. *)
let test_gate () =
  let baseline =
    match
      Sim.Json.parse
        (In_channel.with_open_bin "../LINT_stats.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "LINT_stats.json: %s" e
  in
  let grown =
    match baseline with
    | Sim.Json.Obj fields ->
        Sim.Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "reach", Sim.Json.Obj r ->
                   ( k,
                     Sim.Json.Obj
                       (List.map
                          (fun (k', v') ->
                            match (k', v') with
                            | "unreached", Sim.Json.Int n ->
                                (k', Sim.Json.Int (n + 1))
                            | _ -> (k', v'))
                          r) )
               | _ -> (k, v))
             fields)
    | j -> j
  in
  Alcotest.(check (list string))
    "baseline holds" []
    (List.map (fun (k, _, _) -> k) (Chain.gate_drift ~baseline baseline));
  Alcotest.(check (list string))
    "one more unreached value fails" [ "reach.unreached" ]
    (List.map (fun (k, _, _) -> k) (Chain.gate_drift ~baseline grown))

let test_counts () =
  let r = Lazy.force report in
  Alcotest.(check (list int))
    "roots, tests, exported" [ 1; 1; 11 ]
    [ r.roots; r.tests; r.exported ]

(* Without the entry executable nothing is reached: the test alone roots
   nothing. *)
let test_tests_root_nothing () =
  let r = Cdna_reach.analyze (load ~entries:[ "test_rfix.cmt" ]) in
  Alcotest.(check int) "every export unreached" r.exported
    (Cdna_reach.count r "unreached")

let () =
  Alcotest.run "cdna_reach"
    [
      ( "fixtures",
        [
          Alcotest.test_case "exact report" `Quick test_exact;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "tests root nothing" `Quick
            test_tests_root_nothing;
          Alcotest.test_case "closure in a record" `Quick test_record_closure;
          Alcotest.test_case "module alias" `Quick test_module_alias;
          Alcotest.test_case "let module alias" `Quick test_let_module_alias;
          Alcotest.test_case "functor argument" `Quick test_functor_argument;
          Alcotest.test_case "local shadow" `Quick test_local_shadow;
          Alcotest.test_case "forwarded optional" `Quick
            test_forwarded_optional;
          Alcotest.test_case "test supply" `Quick test_test_supply;
        ] );
      ( "tree",
        [ Alcotest.test_case "gate holds reach counts" `Quick test_gate;
        ] );
    ]
