(* Regenerate the golden determinism fixtures under test/golden/.

   The golden test (test_experiments.ml) asserts that a seeded run still
   produces byte-identical --trace-out / --metrics-out artifacts, proving
   datapath optimizations change no simulated behaviour. Refresh the
   fixtures ONLY after a deliberate behavioural or observability change:

     dune exec test/gen_golden.exe -- test/golden

   and review the diff before committing. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun (tag, cfg) ->
      let trace, metrics = Golden.traced_artifacts cfg in
      let write name content =
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length content)
      in
      write (Printf.sprintf "trace_%s.json" tag) trace;
      write (Printf.sprintf "metrics_%s.json" tag) metrics)
    Golden.runs
