(* cdna_lint / cdna_flow / cdna_dom / cdna_proto / cdna_reach CLI.

   Usage:
     main.exe --cmt CMT_DIR [--cmt ENTRY_DIR]... [--stats FILE] [--quiet]
              [--format text|github] [--only RULE] [--gate BASELINE]

   Loads the compiled [.cmt] tree rooted at the first CMT_DIR once
   ([Program.load_with]) and runs the four passes over it: the
   expression-level lint (D/A/P/S rules), the interprocedural flow
   verifier, the domain-safety / race detector and the resource-protocol
   (typestate) verifier. One invocation runs every pass and exits with a
   single combined code.

   Each further [--cmt] names a tree of entry executables and their tests
   (bin/, bench/, perfbench/, examples/, test/ under _build/default).
   The four passes never read those; with at least one of them, the
   reach report ([Cdna_reach]) lists the analysed tree's exported values
   no executable reaches, those named only inside their own module and
   the optional parameters no reached call supplies. The report is no
   violation; its counts are in the stats document under the drift gate.

   Exit codes: 0 clean, 1 violations found, 2 usage or I/O error (an
   unreadable or truncated [.cmt], or a CMT_DIR holding no implementation
   [.cmt], is an I/O error).

   [--only RULE] restricts the rendered report and the exit code to
   violations of RULE — either a full rule name ("PR1-leak-on-path") or
   its prefix up to the first dash ("PR1", "T1"). Stats artifacts stay
   complete so baselines never depend on the filter.

   [--format github] emits `::error file=...,line=...::msg` annotations
   for CI logs instead of the human-readable report.

   [--stats] writes the combined run summary (rules hit, modules
   scanned, suppression counts, per-pass reports) as a deterministic
   Sim.Json document so CI can archive it. The stats document also
   carries a [timing] block (per-pass wall time in milliseconds and input
   count); it is diagnostic only and is never consulted by the drift
   gate.

   [--gate BASELINE] is the suppression-drift gate: after computing the
   current stats it fails (exit 1) if the unsuppressed-violation count or
   any single suppression count grew versus the committed BASELINE file
   ([Chain.gate_drift]). *)

let usage =
  "usage: cdna_lint --cmt CMT_DIR [--cmt ENTRY_DIR]... [--stats FILE] \
   [--quiet] [--format text|github] [--only RULE] [--gate BASELINE]"

let usage_error msg =
  prerr_endline ("cdna_lint: " ^ msg);
  prerr_endline usage;
  exit 2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let github_escape s =
  (* The workflow-command grammar reserves %, CR and LF in messages. *)
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Fails when a tracked count in [current] exceeds the committed
   [baseline]: new unsuppressed violations or new suppression
   annotations both require a deliberate baseline refresh. *)
let run_gate ~baseline_path current =
  let baseline =
    match Sim.Json.parse (read_file baseline_path) with
    | Ok j -> j
    | Error _ | (exception Sys_error _) ->
        prerr_endline
          ("cdna_lint: cannot read gate baseline " ^ baseline_path);
        exit 2
  in
  let drifted = Chain.gate_drift ~baseline current in
  List.iter
    (fun (what, base, cur) ->
      Printf.eprintf
        "cdna_lint: gate: %s grew from %d to %d (refresh %s deliberately \
         if intended)\n"
        what base cur baseline_path)
    drifted;
  drifted = []

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let stats_out = ref None and quiet = ref false and format = ref `Text in
  let cmt_roots = ref [] and only = ref None and gate = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--stats" :: f :: rest ->
        stats_out := Some f;
        parse_args rest
    | "--cmt" :: d :: rest ->
        cmt_roots := !cmt_roots @ [ d ];
        parse_args rest
    | "--only" :: r :: rest ->
        only := Some r;
        parse_args rest
    | "--gate" :: f :: rest ->
        gate := Some f;
        parse_args rest
    | "--format" :: f :: rest ->
        (match f with
        | "text" -> format := `Text
        | "github" -> format := `Github
        | other -> usage_error ("unknown format " ^ other));
        parse_args rest
    | "--quiet" :: rest ->
        quiet := true;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | [ ("--stats" | "--cmt" | "--only" | "--gate" | "--format") ] ->
        usage_error "missing option argument"
    | arg :: _ -> usage_error ("unknown argument " ^ arg)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let root, entries =
    match !cmt_roots with
    | root :: entries -> (root, entries)
    | [] -> usage_error "--cmt CMT_DIR is required"
  in
  (* Per-pass wall time: diagnostic only (stats [timing] block and the
     summary line), deliberately outside the drift gate. *)
  let timings = ref [] in
  let timed name count f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let ms = int_of_float (ceil ((Unix.gettimeofday () -. t0) *. 1000.)) in
    timings := !timings @ [ (name, ms, count r) ];
    r
  in
  let prog =
    try
      timed "load" (fun p -> p.Program.files) (fun () ->
          Program.load_with ~entries [ root ])
    with Program.Load_error msg ->
      prerr_endline ("cdna_lint: " ^ msg);
      exit 2
  in
  let pass name count analyze = timed name count (fun () -> analyze prog) in
  let lint = pass "lint" (fun r -> r.Cdna_lint.cmt_files) Cdna_lint.analyze in
  let flow = pass "flow" (fun r -> r.Cdna_flow.cmt_files) Cdna_flow.analyze in
  let dom = pass "dom" (fun r -> r.Cdna_dom.cmt_files) Cdna_dom.analyze in
  let proto =
    pass "proto" (fun r -> r.Cdna_proto.cmt_files) Cdna_proto.analyze
  in
  let reach =
    if entries = [] then None
    else
      Some (pass "reach" (fun r -> r.Cdna_reach.roots) Cdna_reach.analyze)
  in
  (* [--only]: the filtered view drives rendering and the exit code; the
     stats artifact below is always computed from the full reports. *)
  let only = !only in
  let shown =
    List.filter
      (fun v -> Chain.rule_matches ~only v.Chain.rule)
      (lint.violations @ flow.violations @ dom.violations @ proto.violations)
  in
  (match !format with
  | `Text ->
      List.iter (fun v -> print_endline (Chain.violation_to_string v)) shown
  | `Github ->
      List.iter
        (fun (v : Chain.violation) ->
          let lines =
            v.msg
            :: List.mapi
                 (fun i (h : Chain.hop) ->
                   Printf.sprintf "%d. %s at %s:%d" (i + 1) h.hop_what
                     h.hop_file h.hop_line)
                 v.chain
          in
          Printf.printf "::error file=%s,line=%d::[%s] %s\n" v.file v.line
            v.rule
            (github_escape (String.concat "\n" lines)))
        shown);
  let stats_json =
    match Cdna_lint.report_to_json lint with
    | Sim.Json.Obj fields ->
        Sim.Json.Obj
          (fields
          @ [
              ("flow", Cdna_flow.report_to_json flow);
              ("dom", Cdna_dom.report_to_json dom);
              ("proto", Cdna_proto.report_to_json proto);
            ]
          @ Option.fold ~none:[]
              ~some:(fun r -> [ ("reach", Cdna_reach.report_to_json r) ])
              reach
          @ [
              ( "timing",
                Sim.Json.Obj
                  (List.map
                     (fun (name, ms, n) ->
                       ( name,
                         Sim.Json.Obj
                           [
                             ("ms", Sim.Json.Int ms); ("inputs", Sim.Json.Int n);
                           ] ))
                     !timings) );
            ])
    | j -> j
  in
  (* Gate before writing artifacts: [--stats] may legitimately point at
     the same file as [--gate], refreshing the baseline only after the
     comparison against the committed copy has been made. *)
  let gate_ok =
    match !gate with
    | Some baseline_path -> run_gate ~baseline_path stats_json
    | None -> true
  in
  Option.iter
    (fun f -> write_file f (Sim.Json.to_string stats_json ^ "\n"))
    !stats_out;
  if not !quiet then begin
    Printf.printf
      "cdna_lint: %d cmt file(s), %d hot function(s), %d violation(s), %d \
       suppression annotation(s)\n"
      lint.cmt_files lint.hot_functions
      (List.length lint.violations)
      (List.fold_left (fun acc (_, n) -> acc + n) 0 lint.suppressions);
    Printf.printf
      "cdna_flow: %d cmt file(s), %d function(s), %d violation(s), %d \
       suppressed, %d sanitizer(s)\n"
      flow.cmt_files flow.functions
      (List.length flow.violations)
      (List.length flow.suppressed)
      flow.sanitizer_fns;
    Printf.printf
      "cdna_dom: %d cmt file(s), %d state item(s) [%s], %d violation(s), %d \
       suppressed, %d domain-local assertion(s)\n"
      dom.cmt_files dom.state_items
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) dom.classes))
      (List.length dom.violations)
      (List.length dom.suppressed)
      dom.domain_local;
    Printf.printf
      "cdna_proto: %d cmt file(s), %d function(s), %d protocol(s), %d \
       violation(s), %d suppressed\n"
      proto.cmt_files proto.functions proto.protocols
      (List.length proto.violations)
      (List.length proto.suppressed);
    Option.iter
      (fun (r : Cdna_reach.report) ->
        Printf.printf
          "cdna_reach: %d root(s), %d test(s), %d exported value(s), %d \
           unreached, %d internal, %d optional never supplied\n"
          r.roots r.tests r.exported
          (Cdna_reach.count r "unreached")
          (Cdna_reach.count r "internal")
          (Cdna_reach.count r "optional"))
      reach;
    Printf.printf "cdna timing: %s\n"
      (String.concat ", "
         (List.map
            (fun (name, ms, n) -> Printf.sprintf "%s %dms/%d" name ms n)
            !timings))
  end;
  if shown <> [] || not gate_ok then exit 1
