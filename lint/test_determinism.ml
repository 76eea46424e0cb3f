(* Determinism of the combined stats artifact (four passes plus the
   reach report) and of the rendered violation output: LINT_stats.json
   is diffed by the drift gate and archived by CI, so two runs over the
   same corpus must agree byte-for-byte, and the result must not depend
   on the order the fixture directories happen to be listed in.

   This assembles the combined document exactly as [main.exe --stats]
   does — the lint block plus one block per further pass — except for the
   [timing] block, which is wall-clock by definition and therefore
   excluded from both the gate and this comparison. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The combined stats document (sans timing) over all five fixture
   corpora, with every pass's rendered violations and the reach report
   appended. *)
let combined ~order =
  let lint = Cdna_lint.analyze (Program.load [ "fixtures" ]) in
  let flow = Cdna_flow.analyze (Program.load [ "flow_fixtures" ]) in
  let dom = Cdna_dom.analyze (Program.load [ "dom_fixtures" ]) in
  let proto =
    let paths =
      Program.collect_cmts [] "proto_fixtures" |> List.sort String.compare
    in
    Cdna_proto.analyze (Program.load (order paths))
  in
  let reach =
    Cdna_reach.analyze
      (Program.load_with
         ~entries:
           (order
              [ "reach_fixtures/rmain.cmt"; "reach_fixtures/test_rfix.cmt" ])
         [ "reach_fixtures/rlib.cmt" ])
  in
  let json =
    match Cdna_lint.report_to_json lint with
    | Sim.Json.Obj fields ->
        Sim.Json.Obj
          (fields
          @ [
              ("flow", Cdna_flow.report_to_json flow);
              ("dom", Cdna_dom.report_to_json dom);
              ("proto", Cdna_proto.report_to_json proto);
              ("reach", Cdna_reach.report_to_json reach);
            ])
    | j -> j
  in
  let rendered =
    List.map Chain.violation_to_string
      (lint.violations @ flow.violations @ dom.violations @ proto.violations)
    @ List.map Cdna_reach.entry_to_string reach.entries
  in
  (Sim.Json.to_string json, String.concat "\n" rendered)

let test_two_runs () =
  let json_a, text_a = combined ~order:(fun p -> p) in
  let json_b, text_b = combined ~order:(fun p -> p) in
  Alcotest.(check string) "combined stats JSON byte-identical" json_a json_b;
  Alcotest.(check string) "rendered violations byte-identical" text_a text_b;
  Alcotest.(check bool) "corpus is non-trivial" true
    (String.length text_a > 0)

(* Feeding the .cmt corpus in reverse listing order must not change a
   byte: discovery order is an accident of the filesystem. *)
let test_listing_order () =
  let json_a, text_a = combined ~order:(fun p -> p) in
  let json_b, text_b = combined ~order:List.rev in
  Alcotest.(check string) "stats JSON stable under listing order" json_a
    json_b;
  Alcotest.(check string) "rendering stable under listing order" text_a text_b

(* One pass's report as JSON plus its rendered violations, suppressed
   ones included. *)
let pass_output to_json violations suppressed r =
  Sim.Json.to_string (to_json r)
  :: List.map Chain.violation_to_string (violations r @ suppressed r)

let lint p =
  pass_output Cdna_lint.report_to_json
    (fun r -> r.Cdna_lint.violations)
    (fun _ -> [])
    (Cdna_lint.analyze p)

let flow p =
  pass_output Cdna_flow.report_to_json
    (fun r -> r.Cdna_flow.violations)
    (fun r -> r.Cdna_flow.suppressed)
    (Cdna_flow.analyze p)

let dom p =
  pass_output Cdna_dom.report_to_json
    (fun r -> r.Cdna_dom.violations)
    (fun r -> r.Cdna_dom.suppressed)
    (Cdna_dom.analyze p)

let proto p =
  pass_output Cdna_proto.report_to_json
    (fun r -> r.Cdna_proto.violations)
    (fun r -> r.Cdna_proto.suppressed)
    (Cdna_proto.analyze p)

(* Running the four passes over one loaded program, in either order,
   must give each pass exactly the output it gives alone on a freshly
   loaded program: no pass may see another's summaries or facts. *)
let test_shared_program corpus () =
  let alone pass = pass (Program.load [ corpus ]) in
  let expect = [ alone lint; alone flow; alone dom; alone proto ] in
  let shared = Program.load [ corpus ] in
  (* [let]s, not a list literal, to fix the evaluation order. *)
  let l1 = lint shared in
  let f1 = flow shared in
  let d1 = dom shared in
  let p1 = proto shared in
  let p2 = proto shared in
  let d2 = dom shared in
  let f2 = flow shared in
  let l2 = lint shared in
  let check order got =
    List.iter2
      (fun name (e, g) ->
        Alcotest.(check (list string)) (order ^ ": " ^ name) e g)
      [ "lint"; "flow"; "dom"; "proto" ]
      (List.combine expect got)
  in
  check "lint->flow->dom->proto" [ l1; f1; d1; p1 ];
  check "proto->dom->flow->lint" [ l2; f2; d2; p2 ]

(* A corpus that cannot be loaded fails loudly, naming the culprit. *)
let expect_load_error ~needle roots =
  match Program.load roots with
  | _ -> Alcotest.fail ("loaded without error: " ^ String.concat " " roots)
  | exception Program.Load_error msg ->
      let nl = String.length needle and ml = String.length msg in
      let rec has i =
        i + nl <= ml && (String.sub msg i nl = needle || has (i + 1))
      in
      Alcotest.(check bool) ("message names " ^ needle ^ ": " ^ msg) true
        (has 0)

let temp_dir () =
  let d = Filename.temp_file "cdna_program" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let test_truncated_cmt () =
  let d = temp_dir () in
  let path = Filename.concat d "taint_direct.cmt" in
  let data = read_file "flow_fixtures/taint_direct.cmt" in
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 (min 2000 (String.length data / 2)));
  close_out oc;
  expect_load_error ~needle:path [ d ];
  Sys.remove path;
  Sys.rmdir d

let test_empty_root () =
  let d = temp_dir () in
  expect_load_error ~needle:d [ d ];
  Sys.rmdir d

let () =
  Alcotest.run "determinism"
    [
      ( "four-pass",
        [
          Alcotest.test_case "byte-identical across runs" `Quick test_two_runs;
          Alcotest.test_case "stable under listing order" `Quick
            test_listing_order;
        ] );
      ( "shared-program",
        List.map
          (fun corpus ->
            Alcotest.test_case (corpus ^ " both pass orders") `Quick
              (test_shared_program corpus))
          [ "flow_fixtures"; "dom_fixtures"; "proto_fixtures"; "fixtures" ] );
      ( "load-errors",
        [
          Alcotest.test_case "truncated .cmt" `Quick test_truncated_cmt;
          Alcotest.test_case "root without .cmt" `Quick test_empty_root;
        ] );
    ]
