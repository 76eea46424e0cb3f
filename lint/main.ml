(* cdna_lint / cdna_flow / cdna_dom / cdna_proto CLI.

   Usage:
     main.exe [--json FILE] [--stats FILE] [--quiet] [--format text|github]
              [--cmt CMT_DIR] [--only RULE] [--gate BASELINE] [DIR|FILE]...

   Walks every [.ml] under the given roots (default: [lib]) through the
   parsetree checker. With [--cmt] it also loads the compiled [.cmt] tree
   rooted at CMT_DIR once ([Program.load]) and runs the three typedtree
   passes over it: the interprocedural flow verifier, the domain-safety /
   race detector and the resource-protocol (typestate) verifier. One
   invocation runs every pass and exits with a single combined code.

   Exit codes: 0 clean, 1 violations found, 2 usage or I/O error (an
   unreadable or truncated [.cmt], or a CMT_DIR holding no implementation
   [.cmt], is an I/O error).

   [--only RULE] restricts the rendered report and the exit code to
   violations of RULE — either a full rule name ("PR1-leak-on-path") or
   its prefix up to the first dash ("PR1", "T1"). Stats artifacts stay
   complete so baselines never depend on the filter.

   [--format github] emits `::error file=...,line=...::msg` annotations
   for CI logs instead of the human-readable report.

   [--json] writes the parsetree diagnostics and [--stats] the combined
   run summary (rules hit, files scanned, suppression counts, per-pass
   reports) as deterministic Sim.Json documents so CI can archive them.
   The stats document also carries a [timing] block (per-pass wall time
   in milliseconds and input count); it is diagnostic only and is never
   consulted by the drift gate.

   [--gate BASELINE] is the suppression-drift gate: after computing the
   current stats it fails (exit 1) if the unsuppressed-violation count or
   any suppression count grew versus the committed BASELINE file. *)

let usage =
  "usage: cdna_lint [--json FILE] [--stats FILE] [--quiet] [--format \
   text|github] [--cmt CMT_DIR] [--only RULE] [--gate BASELINE] [PATH]..."

let usage_error msg =
  prerr_endline ("cdna_lint: " ^ msg);
  prerr_endline usage;
  exit 2

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc entry -> collect_ml acc (Filename.concat path entry)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

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

(* ------------------------------------------------------------------ *)
(* Suppression-drift gate                                              *)
(* ------------------------------------------------------------------ *)

let json_int ?(default = 0) j path =
  let rec walk j = function
    | [] -> ( match j with Sim.Json.Int n -> Some n | _ -> None)
    | k :: rest -> (
        match j with
        | Sim.Json.Obj fields -> (
            match List.assoc_opt k fields with
            | Some j' -> walk j' rest
            | None -> None)
        | _ -> None)
  in
  match walk j path with Some n -> n | None -> default

let json_obj_total j path =
  match
    let rec walk j = function
      | [] -> Some j
      | k :: rest -> (
          match j with
          | Sim.Json.Obj fields -> (
              match List.assoc_opt k fields with
              | Some j' -> walk j' rest
              | None -> None)
          | _ -> None)
    in
    walk j path
  with
  | Some (Sim.Json.Obj fields) ->
      List.fold_left
        (fun acc (_, v) -> match v with Sim.Json.Int n -> acc + n | _ -> acc)
        0 fields
  | _ -> 0

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
  let checks =
    [
      ("violations", json_int baseline [ "violations" ],
       json_int current [ "violations" ]);
      ("suppressions (total)", json_obj_total baseline [ "suppressions" ],
       json_obj_total current [ "suppressions" ]);
      ("flow violations", json_int baseline [ "flow"; "violations" ],
       json_int current [ "flow"; "violations" ]);
      ("flow suppressions", json_int baseline [ "flow"; "suppressions" ],
       json_int current [ "flow"; "suppressions" ]);
      ("dom violations", json_int baseline [ "dom"; "violations" ],
       json_int current [ "dom"; "violations" ]);
      ("dom suppressions", json_int baseline [ "dom"; "suppressions" ],
       json_int current [ "dom"; "suppressions" ]);
      ("dom domain_shared annotations",
       json_int baseline [ "dom"; "domain_shared" ],
       json_int current [ "dom"; "domain_shared" ]);
      ("dom domain_local annotations",
       json_int baseline [ "dom"; "domain_local" ],
       json_int current [ "dom"; "domain_local" ]);
      ("proto violations", json_int baseline [ "proto"; "violations" ],
       json_int current [ "proto"; "violations" ]);
      ("proto suppressions", json_int baseline [ "proto"; "suppressions" ],
       json_int current [ "proto"; "suppressions" ]);
      ("proto acquire annotations",
       json_int baseline [ "proto"; "acquire_annots" ],
       json_int current [ "proto"; "acquire_annots" ]);
      ("proto release annotations",
       json_int baseline [ "proto"; "release_annots" ],
       json_int current [ "proto"; "release_annots" ]);
    ]
  in
  let drifted =
    List.filter_map
      (fun (what, base, cur) ->
        if cur > base then Some (what, base, cur) else None)
      checks
  in
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
  let json_out = ref None in
  let stats_out = ref None in
  let quiet = ref false in
  let format = ref `Text in
  let cmt_root = ref None in
  let only = ref None in
  let gate = ref None in
  let roots = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: f :: rest ->
        json_out := Some f;
        parse_args rest
    | "--stats" :: f :: rest ->
        stats_out := Some f;
        parse_args rest
    | "--cmt" :: d :: rest ->
        cmt_root := Some d;
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
    | [ ("--json" | "--stats" | "--cmt" | "--only" | "--gate" | "--format") ]
      ->
        usage_error "missing option argument"
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        usage_error ("unknown option " ^ arg)
    | path :: rest ->
        roots := path :: !roots;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots = if !roots = [] then [ "lib" ] else List.rev !roots in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then
        usage_error ("no such path: " ^ r))
    roots;
  let files =
    List.fold_left collect_ml [] roots
    |> List.sort_uniq String.compare
    |> List.map (fun p -> (p, read_file p))
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
  let diags, stats =
    timed "lint" (fun _ -> List.length files) (fun () -> Cdna_lint.run files)
  in
  let prog =
    match !cmt_root with
    | None -> None
    | Some root -> (
        try
          Some
            (timed "load"
               (fun p -> p.Program.files)
               (fun () -> Program.load [ root ]))
        with Program.Load_error msg ->
          prerr_endline ("cdna_lint: " ^ msg);
          exit 2)
  in
  let pass name count analyze =
    Option.map (fun p -> timed name count (fun () -> analyze p)) prog
  in
  let flow_report =
    pass "flow" (fun r -> r.Cdna_flow.cmt_files) Cdna_flow.analyze
  in
  let dom_report =
    pass "dom" (fun r -> r.Cdna_dom.cmt_files) Cdna_dom.analyze
  in
  let proto_report =
    pass "proto" (fun r -> r.Cdna_proto.cmt_files) Cdna_proto.analyze
  in
  (* [--only]: the filtered views drive rendering and the exit code; the
     stats artifact below is always computed from the full reports. *)
  let only = !only in
  let shown_diags =
    List.filter (fun d -> Chain.rule_matches ~only d.Cdna_lint.rule) diags
  in
  let shown_pass vs =
    List.filter (fun v -> Chain.rule_matches ~only v.Chain.rule) vs
  in
  let shown_flow =
    match flow_report with
    | Some r -> shown_pass r.Cdna_flow.violations
    | None -> []
  in
  let shown_dom =
    match dom_report with
    | Some r -> shown_pass r.Cdna_dom.violations
    | None -> []
  in
  let shown_proto =
    match proto_report with
    | Some r -> shown_pass r.Cdna_proto.violations
    | None -> []
  in
  (* Reports. *)
  (match !format with
  | `Text ->
      List.iter
        (fun d -> print_endline (Cdna_lint.diag_to_string d))
        shown_diags;
      List.iter
        (fun v -> print_endline (Chain.violation_to_string v))
        (shown_flow @ shown_dom @ shown_proto)
  | `Github ->
      List.iter
        (fun d ->
          Printf.printf "::error file=%s,line=%d,col=%d::[%s] %s\n"
            d.Cdna_lint.file d.Cdna_lint.line d.Cdna_lint.col
            d.Cdna_lint.rule
            (github_escape d.Cdna_lint.msg))
        shown_diags;
      List.iter
        (fun (v : Chain.violation) ->
          let chain =
            String.concat "\n"
              (List.mapi
                 (fun i (h : Chain.hop) ->
                   Printf.sprintf "%d. %s at %s:%d" (i + 1) h.hop_what
                     h.hop_file h.hop_line)
                 v.chain)
          in
          Printf.printf "::error file=%s,line=%d::[%s] %s\n" v.file v.line
            v.rule
            (github_escape (v.msg ^ "\n" ^ chain)))
        (shown_flow @ shown_dom @ shown_proto));
  (* Artifacts. *)
  let stats_json =
    let base = Cdna_lint.stats_to_json stats in
    let add name block j =
      match (block, j) with
      | Some b, Sim.Json.Obj fields -> Sim.Json.Obj (fields @ [ (name, b) ])
      | _, j -> j
    in
    base
    |> add "flow" (Option.map Cdna_flow.report_to_json flow_report)
    |> add "dom" (Option.map Cdna_dom.report_to_json dom_report)
    |> add "proto" (Option.map Cdna_proto.report_to_json proto_report)
    |> add "timing"
         (Some
            (Sim.Json.Obj
               (List.map
                  (fun (name, ms, n) ->
                    ( name,
                      Sim.Json.Obj
                        [ ("ms", Sim.Json.Int ms); ("inputs", Sim.Json.Int n) ]
                    ))
                  !timings)))
  in
  (* Gate before writing artifacts: [--stats] may legitimately point at
     the same file as [--gate], refreshing the baseline only after the
     comparison against the committed copy has been made. *)
  let gate_ok =
    match !gate with
    | Some baseline_path -> run_gate ~baseline_path stats_json
    | None -> true
  in
  (match !json_out with
  | Some f -> write_file f (Sim.Json.to_string (Cdna_lint.diags_to_json diags) ^ "\n")
  | None -> ());
  (match !stats_out with
  | Some f -> write_file f (Sim.Json.to_string stats_json ^ "\n")
  | None -> ());
  if not !quiet then begin
    Printf.printf
      "cdna_lint: %d file(s), %d hot function(s), %d violation(s), %d \
       suppression annotation(s)\n"
      stats.Cdna_lint.files_scanned stats.Cdna_lint.hot_functions
      stats.Cdna_lint.violations
      (List.fold_left
         (fun acc (_, n) -> acc + n)
         0 stats.Cdna_lint.suppression_counts);
    Option.iter
      (fun r ->
        Printf.printf
          "cdna_flow: %d cmt file(s), %d function(s), %d violation(s), %d \
           suppressed, %d sanitizer(s)\n"
          r.Cdna_flow.cmt_files r.Cdna_flow.functions
          (List.length r.Cdna_flow.violations)
          (List.length r.Cdna_flow.suppressed)
          r.Cdna_flow.sanitizer_fns)
      flow_report;
    Option.iter
      (fun (r : Cdna_dom.report) ->
        Printf.printf
          "cdna_dom: %d cmt file(s), %d state item(s) [%s], %d violation(s), \
           %d suppressed, %d domain-local assertion(s)\n"
          r.cmt_files r.state_items
          (String.concat ", "
             (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) r.classes))
          (List.length r.violations)
          (List.length r.suppressed)
          r.domain_local)
      dom_report;
    Option.iter
      (fun (r : Cdna_proto.report) ->
        Printf.printf
          "cdna_proto: %d cmt file(s), %d function(s), %d protocol(s), %d \
           violation(s), %d suppressed\n"
          r.cmt_files r.functions r.protocols
          (List.length r.violations)
          (List.length r.suppressed))
      proto_report;
    Printf.printf "cdna timing: %s\n"
      (String.concat ", "
         (List.map
            (fun (name, ms, n) -> Printf.sprintf "%s %dms/%d" name ms n)
            !timings))
  end;
  if
    shown_diags <> [] || shown_flow <> [] || shown_dom <> []
    || shown_proto <> [] || not gate_ok
  then exit 1
